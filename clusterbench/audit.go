package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
)

// auditData is the ledger an auditor receives: the batch stream and every
// receipt the primary handed out.
type auditData struct {
	pub      *hashsig.PublicKey
	batches  []*ledger.Batch
	receipts []ledger.Receipt
}

// buildAudit executes the workload's batches on a primary ledger, keeping
// every batch and receipt.
func buildAudit(g *gen, sp spec) (*auditData, error) {
	keys, pubs := clusterKeys()
	l, err := ledger.New(ledger.Config{Key: keys[0], App: ledger.KVApp{}, CheckpointEvery: checkpointEvery, Shards: shards})
	if err != nil {
		return nil, err
	}
	const authors = 4096
	ids := make([]hashsig.Digest, authors)
	for i := range ids {
		ids[i] = g.author("audit", i)
	}
	reqNos := make([]uint64, authors)
	rng := g.rng("audit", 0)
	d := &auditData{pub: pubs[0], receipts: make([]ledger.Receipt, 0, sp.batches*sp.batch)}
	for b := 0; b < sp.batches; b++ {
		reqs := make([]ledger.Request, sp.batch)
		for i := range reqs {
			a := (b*sp.batch + i) % authors
			reqNos[a]++
			reqs[i] = ledger.Request{Author: ids[a], ReqNo: reqNos[a], Body: g.put(rng)}
		}
		batch, rcs, err := l.ExecuteBatch(reqs)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", b+1, err)
		}
		if len(rcs) != len(reqs) {
			return nil, fmt.Errorf("batch %d: %d receipts for %d requests", b+1, len(rcs), len(reqs))
		}
		for i := range rcs {
			if rcs[i].Entry.Author != reqs[i].Author || rcs[i].Entry.ReqNo != reqs[i].ReqNo {
				return nil, fmt.Errorf("batch %d: receipt %d names another request", b+1, i)
			}
		}
		d.batches = append(d.batches, batch)
		d.receipts = append(d.receipts, rcs...)
	}
	return d, nil
}

// checkReceipt is the auditor's verdict on one receipt: it verifies under
// the primary's key and its header is the stream's header at that seq,
// which the replay has reproduced.
func (d *auditData) checkReceipt(rc *ledger.Receipt, check func(*ledger.Receipt, *hashsig.PublicKey) bool) bool {
	if !check(rc, d.pub) {
		return false
	}
	i := rc.Header.Seq - d.batches[0].Header.Seq
	return i < uint64(len(d.batches)) && sameHeader(&d.batches[i].Header, &rc.Header)
}

func verifyReceipt(rc *ledger.Receipt, pub *hashsig.PublicKey) bool { return rc.Verify(pub) }

func runAudit(cfg config) (*result, error) {
	sp := cfg.spec
	res := newResult()
	g := &gen{workload: sp.name, seed: cfg.seed, keys: sp.keys}
	var (
		d      *auditData
		setups []float64
	)
	for s := 0; s < sp.setups; s++ {
		begin := time.Now()
		if s == 0 {
			begin = processStart
		}
		d = nil // let the previous set-up's ledger go before building the next
		var err error
		if d, err = buildAudit(g, sp); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", s+1, err)
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	res.e2e["setup_s"] = median(setups)
	res.note("setup_s runs %v", roundAll(setups))

	var tr *tracer
	var app ledger.App = ledger.KVApp{}
	check := cfg.check
	if check == nil {
		check = verifyReceipt
	}
	if cfg.trace {
		tr = newTracer()
		app = tracedApp{t: tr}
		inner := check
		check = func(rc *ledger.Receipt, pub *hashsig.PublicKey) bool {
			t0 := time.Now()
			ok := inner(rc, pub)
			tr.c[cVerifies].Add(1)
			tr.c[cVerifyNs].Add(int64(time.Since(t0)))
			if ok {
				tr.c[cVerified].Add(1)
			}
			return ok
		}
	}
	if cfg.tamperAt > 0 {
		i := (cfg.tamperAt - 1) % len(d.receipts)
		d.receipts[i] = *tamper(&d.receipts[i])
	}

	w := openWindow(tr, nil)
	pool := hashsig.DefaultPool()
	start := time.Now()
	deadline := start.Add(cfg.measure)
	var (
		replayDur, checkDur time.Duration
		replayed, checked   int
		lat                 []float64
		bad                 []int
		passes              int
	)
	for passes == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		rr, err := ledger.Replay(d.batches, d.pub, app, pool)
		t1 := time.Now()
		replayDur += t1.Sub(t0)
		if tr != nil {
			tr.add(span{ID: tr.newID(), Name: "audit.replay", Start: tr.since(t0), End: tr.since(t1)})
		}
		if err != nil {
			res.fail("replaying the audit ledger: %v", err)
			break
		}
		if last := d.batches[len(d.batches)-1].Header; rr.HistSize != last.HistSize || rr.Batches != len(d.batches) {
			res.fail("replay covered %d batches and %d entries, the stream has %d and %d", rr.Batches, rr.HistSize, len(d.batches), last.HistSize)
		}
		replayed += rr.Entries
		// The first pass checks every receipt; later ones stop at the deadline.
		until := deadline
		if passes == 0 {
			until = time.Time{}
		}
		n, l, b, dur := d.checkAll(check, until, tr)
		checked += n
		lat = append(lat, l...)
		bad = append(bad, b...)
		checkDur += dur
		passes++
	}
	w.close()

	control := tamper(&d.receipts[int(cfg.seed%uint64(len(d.receipts)))])
	if d.checkReceipt(control, check) {
		res.fail("the corrupted-receipt control was accepted")
	}
	for i, idx := range bad {
		if i == 5 {
			res.fail("... %d receipts failed in all", len(bad))
			break
		}
		res.fail("receipt %d (seq %d) failed its check", idx, d.receipts[idx].Header.Seq)
	}
	res.attempted, res.failed = checked, len(bad)
	res.e2e["latency_p50_ms"] = quantile(lat, 0.50)
	res.e2e["latency_p99_ms"] = quantile(lat, 0.99)
	res.e2e["goodput_tx_s"] = float64(checked) / checkDur.Seconds()
	res.e2e["peak_tx_s"] = float64(replayed) / replayDur.Seconds()
	res.samples["latency"] = len(lat)
	res.samples["replay_passes"] = passes
	if len(lat) < cfg.minSamples {
		res.fail("only %d latency samples, need %d", len(lat), cfg.minSamples)
	}
	res.note("replayed %d entries in %.3fs, checked %d receipts in %.3fs over %d passes",
		replayed, replayDur.Seconds(), checked, checkDur.Seconds(), passes)

	if tr != nil {
		auditLayers(res, d, w, tr, sp.keys, replayed, checked, passes)
	}
	return res, nil
}

// checkAll checks receipts in order across GOMAXPROCS workers until all are
// checked or, with a non-zero until, that time has passed. It returns the
// number checked, each check's latency in ms, the indexes that failed and
// the time taken.
func (d *auditData) checkAll(check func(*ledger.Receipt, *hashsig.PublicKey) bool, until time.Time, tr *tracer) (int, []float64, []int, time.Duration) {
	workers := runtime.GOMAXPROCS(0)
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
		lat  []float64
		bad  []int
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []float64
			var myBad []int
			for {
				i := int(next.Add(1)) - 1
				if i >= len(d.receipts) || (!until.IsZero() && time.Now().After(until)) {
					break
				}
				rc := &d.receipts[i]
				t0 := time.Now()
				ok := d.checkReceipt(rc, check)
				t1 := time.Now()
				mine = append(mine, float64(t1.Sub(t0))/1e6)
				if !ok {
					myBad = append(myBad, i)
				}
				if tr != nil {
					tr.requestSpan(tr.newID(), 0, "audit.receipt", t0, t1, &ledger.Request{Author: rc.Entry.Author, ReqNo: rc.Entry.ReqNo})
				}
			}
			mu.Lock()
			lat = append(lat, mine...)
			bad = append(bad, myBad...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return len(lat), lat, bad, time.Since(start)
}

// auditLayers fills the per-layer metrics the audit path exercises; the
// cluster layers stay 0.
func auditLayers(res *result, d *auditData, w *window, tr *tracer, keys, replayed, checked, passes int) {
	L := res.layers
	txs := int64(passes * len(d.receipts))
	L["client.verify_us"] = ratio(w.delta(cVerifyNs), w.delta(cVerifies)) / 1e3
	L["client.verify_tries"] = ratio(w.delta(cVerifies), w.delta(cVerified))
	L["ledger.executes_per_tx"] = ratio(w.delta(cExecutes), txs)
	L["ledger.execute_us"] = ratio(w.delta(cExecuteNs), w.delta(cExecutes)) / 1e3
	runtimeLayers(res, w, float64(replayed+checked))
	prefix := d.batches[:min(len(d.batches), 256)]
	L["ledger.execute_batch_ms"], L["ledger.apply_batch_ms"] = redrive(res, prefix, 0, prefix[len(prefix)-1].Header.Seq)
	L["kv.checkpoint_digest_ms"] = checkpointDigestMs(keys)
	headers := make([]*ledger.BatchHeader, len(d.batches))
	for i, b := range d.batches {
		headers[i] = &b.Header
	}
	L["hashsig.verify_us"] = headerVerifyUs(headers, d.pub)
	rcs := make([]*ledger.Receipt, min(len(d.receipts), 20000))
	for i := range rcs {
		rcs[i] = &d.receipts[i]
	}
	L["merkle.path_verify_us"] = pathVerifyUs(rcs)
	res.spans = tr.selfTimes()
	res.tracer = tr
}
