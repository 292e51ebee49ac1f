package main

import (
	"bytes"
	"runtime"
	"runtime/metrics"
	"time"

	"iaccf/internal/hashsig"
	"iaccf/internal/kv"
	"iaccf/internal/ledger"
	"iaccf/internal/merkle"
)

// window brackets the measured part of a traced run: counter snapshots,
// runtime CPU and allocation totals, and the heap peak in between.
type window struct {
	tr         *tracer
	c          *cluster
	start, end time.Time
	c0, c1     [nCtr]int64
	rt0, rt1   rtSample
	seq0, seq1 uint64
	drop0      uint64
	drop1      uint64 // TCP.Dropped summed over replicas
	heap       *heapSampler
}

// openWindow starts a window; plain runs (nil tracer) get none.
func openWindow(tr *tracer, c *cluster) *window {
	if tr == nil {
		return nil
	}
	w := &window{tr: tr, c: c, heap: startHeapSampler()}
	w.rt0 = readRuntime()
	if c != nil {
		w.seq0, w.drop0 = c.nodes[0].CommittedSeqs(), c.dropped()
	}
	w.c0 = tr.c.snap()
	w.start = time.Now()
	return w
}

func (w *window) close() {
	if w == nil {
		return
	}
	w.end = time.Now()
	w.c1 = w.tr.c.snap()
	if w.c != nil {
		w.seq1, w.drop1 = w.c.nodes[0].CommittedSeqs(), w.c.dropped()
	}
	w.rt1 = readRuntime()
	w.heap.stop()
}

func (w *window) delta(k ctr) int64 { return w.c1[k] - w.c0[k] }

type rtSample struct {
	gcCPU, totalCPU float64
	alloc           uint64
}

func readRuntime() rtSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtSample{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), alloc: ms.TotalAlloc}
}

// heapSampler records the peak of live heap objects every 10ms.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tk := time.NewTicker(10 * time.Millisecond)
		defer tk.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-tk.C:
			case <-h.stopc:
				return
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() {
	close(h.stopc)
	<-h.done
}

// runtimeLayers fills the runtime.* metrics over the window.
func runtimeLayers(res *result, w *window, txs float64) {
	res.layers["runtime.gc_cpu_fraction"] = (w.rt1.gcCPU - w.rt0.gcCPU) / (w.rt1.totalCPU - w.rt0.totalCPU)
	res.layers["runtime.heap_peak_mb"] = float64(w.heap.peak) / (1 << 20)
	if txs > 0 {
		res.layers["runtime.alloc_kb_per_tx"] = float64(w.rt1.alloc-w.rt0.alloc) / 1024 / txs
	}
}

// clusterLayers derives the per-layer metrics of a traced cluster run and
// runs its post-run checks: the captured pre-prepare stream must replay
// under the primary's key and reproduce the header of every receipt the
// client accepted.
func clusterLayers(res *result, cfg config, r *clusterRun, w *window, a *phase, receipts int) {
	L := res.layers
	rx := float64(receipts)
	batches := int64(w.seq1 - w.seq0)
	if a.lag != nil {
		L["loadgen.lag_p99_ms"] = quantile(durationsMs(a.lag), 0.99)
	}
	L["loadgen.outstanding_max"] = float64(r.cl.maxInflight.Load())
	L["client.verify_us"] = ratio(w.delta(cVerifyNs), w.delta(cVerifies)) / 1e3
	L["client.verify_tries"] = ratio(w.delta(cVerifies), w.delta(cVerified))
	L["node.entries_per_batch"] = ratio(int64(receipts), batches)
	L["node.ticks_per_commit"] = ratio(w.delta(cTicks), batches)
	L["node.inbound_us"] = ratio(w.delta(cInboundNs), w.delta(cInbound)) / 1e3
	mean, peak := r.tr.depthStats(w.start, w.end)
	L["txpool.depth_mean"], L["txpool.depth_max"] = mean, float64(peak)
	L["transport.frames_per_tx"] = ratio(w.delta(cFrames), int64(receipts))
	L["transport.bytes_per_tx"] = ratio(w.delta(cBytes), int64(receipts))
	L["transport.send_us"] = ratio(w.delta(cSendNs), w.delta(cSendCalls)) / 1e3
	L["transport.dropped"] = float64(w.drop1 - w.drop0)
	L["consensus.preprepare_per_batch"] = ratio(w.delta(cPrePrepares), batches)
	L["consensus.prepare_per_batch"] = ratio(w.delta(cPrepares), batches)
	L["consensus.commit_per_batch"] = ratio(w.delta(cCommits), batches)
	L["consensus.retransmit_share"] = ratio(w.delta(cRetransmits), w.delta(cFrames))
	L["consensus.view_changes"] = float64(r.tr.maxView.Load())
	L["consensus.sync_frames"] = float64(w.delta(cSyncFrames))
	L["consensus.decode_us"] = ratio(w.delta(cDecodeNs), w.delta(cDecodes)) / 1e3
	L["ledger.executes_per_tx"] = ratio(w.delta(cExecutes), int64(receipts))
	L["ledger.execute_us"] = ratio(w.delta(cExecuteNs), w.delta(cExecutes)) / 1e3
	runtimeLayers(res, w, rx)

	stream, views := r.tr.capturedStream()
	replayCheck(res, stream, views, r.c, r.cl.receipts)
	L["ledger.execute_batch_ms"], L["ledger.apply_batch_ms"] = redrive(res, stream, w.seq0, w.seq1)
	L["kv.checkpoint_digest_ms"] = checkpointDigestMs(cfg.spec.keys)
	var headers []*ledger.BatchHeader
	for _, b := range stream {
		if b.Header.Seq > w.seq0 && b.Header.Seq <= w.seq1 {
			headers = append(headers, &b.Header)
		}
	}
	L["hashsig.verify_us"] = headerVerifyUs(headers, r.c.pubs[0])
	L["merkle.path_verify_us"] = pathVerifyUs(r.cl.receipts)
	res.spans = r.tr.selfTimes()
	res.tracer = r.tr
}

// replayCheck replays the captured pre-prepare stream from genesis under
// the primary's key and checks each accepted receipt's header against the
// stream's header at that seq.
func replayCheck(res *result, stream []*ledger.Batch, views []uint64, c *cluster, receipts []*ledger.Receipt) {
	if len(stream) == 0 {
		res.fail("no pre-prepare was captured")
		return
	}
	for i, b := range stream {
		if b.Header.Seq != uint64(i+1) {
			res.fail("captured pre-prepare stream has a gap before seq %d", b.Header.Seq)
			return
		}
		if views[i]%replicas != views[0]%replicas {
			res.fail("pre-prepares from more than one primary (views %d and %d): no single key to replay under", views[0], views[i])
			return
		}
	}
	primary := views[0] % replicas
	if _, err := ledger.Replay(stream, c.pubs[primary], ledger.KVApp{}, hashsig.DefaultPool()); err != nil {
		res.fail("replaying the captured pre-prepare stream: %v", err)
		return
	}
	for _, rc := range receipts {
		i := rc.Header.Seq - 1
		if i >= uint64(len(stream)) || !sameHeader(&stream[i].Header, &rc.Header) {
			res.fail("receipt at seq %d carries a header the replayed stream does not", rc.Header.Seq)
			return
		}
	}
	res.note("replayed %d captured batches under replica %d's key; %d receipts match their headers", len(stream), primary, len(receipts))
}

func sameHeader(a, b *ledger.BatchHeader) bool {
	return a.SigningDigest() == b.SigningDigest() && bytes.Equal(a.Sig, b.Sig)
}

// redrive runs the stream through Ledger.ExecuteBatch (the primary's path)
// and Ledger.ApplyBatch (a backup's path) on fresh ledgers and returns the
// mean time per batch of each over batches with seq in (from, to]. Both
// must reproduce every header.
func redrive(res *result, stream []*ledger.Batch, from, to uint64) (execMs, applyMs float64) {
	keys, _ := clusterKeys()
	prim, err1 := ledger.New(ledger.Config{Key: keys[0], App: ledger.KVApp{}, CheckpointEvery: checkpointEvery, Shards: shards})
	backup, err2 := ledger.New(ledger.Config{Key: keys[1], App: ledger.KVApp{}, CheckpointEvery: checkpointEvery, Shards: shards})
	if err1 != nil || err2 != nil {
		res.fail("re-drive ledgers: %v %v", err1, err2)
		return 0, 0
	}
	var execT, applyT time.Duration
	n := 0
	for _, b := range stream {
		reqs := make([]ledger.Request, 0, len(b.Entries))
		for i := range b.Entries {
			if e := &b.Entries[i]; e.Kind == ledger.KindTransaction {
				reqs = append(reqs, ledger.Request{Author: e.Author, ReqNo: e.ReqNo, Body: e.Payload})
			}
		}
		t0 := time.Now()
		nb, _, err := prim.ExecuteBatch(reqs)
		t1 := time.Now()
		if err != nil || nb.Header.SigningDigest() != b.Header.SigningDigest() {
			res.fail("re-executing batch %d does not reproduce its header (err %v)", b.Header.Seq, err)
			return 0, 0
		}
		_, err = backup.ApplyBatch(b)
		t2 := time.Now()
		if err != nil {
			res.fail("applying batch %d as a backup: %v", b.Header.Seq, err)
			return 0, 0
		}
		if b.Header.Seq > from && b.Header.Seq <= to {
			execT += t1.Sub(t0)
			applyT += t2.Sub(t1)
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(execT) / float64(n) / 1e6, float64(applyT) / float64(n) / 1e6
}

// checkpointDigestMs times ShardedStore.CheckpointDigest on a store holding
// the workload's key space with one shard dirty, as every checkpoint
// finds it: the median of 7.
func checkpointDigestMs(keys int) float64 {
	st := kv.NewSharded(shards)
	val := make([]byte, valueLen)
	tx := st.Begin()
	for k := 0; k < keys; k++ {
		tx.Put(keyName(k), val)
	}
	tx.Commit()
	st.CheckpointDigest()
	var ts []float64
	for i := 0; i < 7; i++ {
		tx := st.Begin()
		val[0] = byte(i + 1)
		tx.Put(keyName(i%keys), val)
		tx.Commit()
		t0 := time.Now()
		st.CheckpointDigest()
		ts = append(ts, float64(time.Since(t0))/1e6)
	}
	return median(ts)
}

// headerVerifyUs is the mean BatchHeader.Verify time over up to 2000 headers.
func headerVerifyUs(headers []*ledger.BatchHeader, pub *hashsig.PublicKey) float64 {
	headers = headers[:min(len(headers), 2000)]
	if len(headers) == 0 {
		return 0
	}
	t0 := time.Now()
	for _, h := range headers {
		h.Verify(pub)
	}
	return float64(time.Since(t0)) / float64(len(headers)) / 1e3
}

// pathVerifyUs is the mean merkle.VerifyShardedPath time over up to 20000
// receipts.
func pathVerifyUs(receipts []*ledger.Receipt) float64 {
	receipts = receipts[:min(len(receipts), 20000)]
	if len(receipts) == 0 {
		return 0
	}
	leaves := make([]hashsig.Digest, len(receipts))
	for i, rc := range receipts {
		leaves[i] = rc.Entry.Digest()
	}
	t0 := time.Now()
	for i, rc := range receipts {
		merkle.VerifyShardedPath(leaves[i], rc.Index, rc.ShardSize, uint64(rc.Shard), uint64(rc.Header.Shards), rc.Path, rc.Header.GRoot)
	}
	return float64(time.Since(t0)) / float64(len(receipts)) / 1e3
}
