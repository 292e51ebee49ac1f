package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"iaccf/internal/ledger"
	"iaccf/internal/node"
)

const (
	preloadOps         = 512 // puts per preload request
	preloadConcurrency = 32
)

// submit hands rq to the replica believed to be primary, following
// NotPrimary hints.
func (c *cluster) submit(rq *ledger.Request) (node.SubmitResult, error) {
	target := int(c.leader.Load())
	for i := 0; i < replicas; i++ {
		res := c.nodes[target].Submit(*rq)
		if res.Status != node.StatusNotPrimary {
			return res, nil
		}
		target = int(res.Leader) % replicas
		c.leader.Store(int32(target))
	}
	return node.SubmitResult{}, fmt.Errorf("no replica accepts submissions as primary")
}

// preload commits the key space before anything is measured, retrying on
// backpressure. Its receipts are checked like any other.
func preload(c *cluster, cl *client, reqs []ledger.Request) error {
	var (
		wg      sync.WaitGroup
		next    atomic.Int64
		errOnce sync.Once
		err     error
	)
	for w := 0; w < preloadConcurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				if e := preloadOne(c, cl, &reqs[i]); e != nil {
					errOnce.Do(func() { err = e })
					return
				}
			}
		}()
	}
	wg.Wait()
	return err
}

func preloadOne(c *cluster, cl *client, rq *ledger.Request) error {
	for attempt := 0; attempt < 100; attempt++ {
		res, err := c.submit(rq)
		if err != nil {
			return err
		}
		switch res.Status {
		case node.StatusCommitted:
			cl.checkReceipt(rq, res.Receipt, 0)
			return nil
		case node.StatusDuplicate:
			return nil // an earlier attempt committed
		case node.StatusBusy, node.StatusTimeout:
			time.Sleep(20 * time.Millisecond)
		default:
			return fmt.Errorf("preload request %d: %v", rq.ReqNo, res.Status)
		}
	}
	return fmt.Errorf("preload: request of author %x did not commit", rq.Author[:4])
}

// clusterRun is one set-up cluster with everything the measured part needs.
type clusterRun struct {
	c     *cluster
	tr    *tracer
	cl    *client
	rpc   *rpcClient
	openA []ledger.Request
}

// setUp boots a cluster, preloads it and warms it up.
func setUp(cfg config, g *gen) (*clusterRun, error) {
	sp := cfg.spec
	r := &clusterRun{}
	if cfg.trace {
		r.tr = newTracer()
	}
	c, err := bootCluster(r.tr)
	if err != nil {
		return nil, err
	}
	r.c = c
	r.cl = newClient(c.pubs, r.tr, cfg.tamperAt)
	if err := preload(c, r.cl, g.preloadRequests(preloadOps)); err != nil {
		c.close()
		return nil, err
	}
	switch sp.kind {
	case kindRTT:
		r.rpc = &rpcClient{addrs: c.addrs, target: int(cfg.seed % replicas)}
		r.cl.closedLoop(g, "warmup", 1, sp.warmup, r.rpc.submit, false)
	case kindCluster:
		r.openA = g.openRequests("open", int(sp.rate*phaseA(cfg.measure).Seconds()), sp.authors)
		r.cl.closedLoop(g, "warmup", sp.closed, sp.warmup, c.submit, false)
	}
	return r, nil
}

func (r *clusterRun) close() {
	if r.rpc != nil {
		r.rpc.close()
	}
	r.c.close()
}

// phaseA is the open-loop share of a cluster run. Open-loop latency varies
// more from second to second than closed-loop throughput does, so it gets
// three quarters of the measured time.
func phaseA(measure time.Duration) time.Duration { return measure * 3 / 4 }

func runCluster(cfg config) (*result, error) {
	sp := cfg.spec
	res := newResult()
	g := &gen{workload: sp.name, seed: cfg.seed, keys: sp.keys}

	var (
		r      *clusterRun
		setups []float64
	)
	for s := 0; s < sp.setups; s++ {
		begin := time.Now()
		if s == 0 {
			begin = processStart
		}
		var err error
		if r, err = setUp(cfg, g); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", s+1, err)
		}
		setups = append(setups, time.Since(begin).Seconds())
		if s < sp.setups-1 {
			r.close()
		}
	}
	defer r.close()
	res.e2e["setup_s"] = median(setups)
	res.note("setup_s runs %v", roundAll(setups))

	w := openWindow(r.tr, r.c)
	var a, b *phase
	switch sp.kind {
	case kindRTT:
		a = r.cl.closedLoop(g, "rtt", 1, cfg.measure, r.rpc.submit, true)
	case kindCluster:
		a = r.cl.openLoop(r.openA, sp.rate, r.c.submit)
		b = r.cl.closedLoop(g, "closed", sp.closed, cfg.measure-phaseA(cfg.measure), r.c.submit, true)
	}
	w.close()

	res.attempted, res.failed = a.attempted, a.failed
	spanA := cfg.measure
	if sp.kind == kindCluster {
		spanA = phaseA(cfg.measure)
	}
	res.e2e["latency_p50_ms"] = a.segmentQuantile(spanA, 0.50)
	res.e2e["latency_p99_ms"] = a.segmentQuantile(spanA, 0.99)
	res.samples["latency"] = len(a.lat)
	res.samples["latency_segments"] = segments(len(a.lat))
	res.note("segment latency p50s %v ms", roundAll(a.segmentQuantiles(spanA, 0.5)))
	lat := durationsMs(a.lat)
	res.note("pooled latency p50 %.3f ms p99 %.3f ms over %d receipts", quantile(lat, 0.5), quantile(lat, 0.99), len(lat))
	if sp.kind == kindRTT {
		rate := a.rateWithin(cfg.measure)
		res.e2e["goodput_tx_s"], res.e2e["peak_tx_s"] = rate, rate
	} else {
		res.e2e["goodput_tx_s"] = float64(a.good) / a.end.Sub(a.start).Seconds()
		res.e2e["peak_tx_s"] = b.rateWithin(cfg.measure - spanA)
		res.attempted += b.attempted
		res.failed += b.failed
		res.samples["peak_receipts"] = b.good
		res.note("phase B latency p50 %.3f ms p99 %.3f ms over %d receipts",
			quantile(durationsMs(b.lat), 0.5), quantile(durationsMs(b.lat), 0.99), len(b.lat))
	}
	if len(a.lat) < cfg.minSamples {
		res.fail("only %d latency samples, need %d for a p99 with 10 beyond it", len(a.lat), cfg.minSamples)
	}
	if a.lag != nil {
		res.note("generator lag p50 %.3f ms p99 %.3f ms", quantile(durationsMs(a.lag), 0.5), quantile(durationsMs(a.lag), 0.99))
	}
	res.note("outstanding max %d", r.cl.maxInflight.Load())

	seqs, entries, ok := r.c.quiesce(10 * time.Second)
	if !ok {
		res.fail("replicas disagree after quiescing: committed seqs %v, entries %v", seqs, entries)
	}
	res.note("quiesced: committed seqs %v, entries %v", seqs, entries)
	for _, p := range r.cl.problems {
		res.fail("%s", p)
	}
	if r.tr != nil {
		receipts := a.good
		if b != nil {
			receipts += b.good
		}
		clusterLayers(res, cfg, r, w, a, receipts)
	}
	return res, nil
}
