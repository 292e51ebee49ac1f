package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
	"iaccf/internal/node"
)

const valueLen = 32

// gen derives every input of a run from the workload seed. Authors live in
// a namespace of the workload, the seed and the phase, so no two phases of
// a run, and no two seeds, share a ⟨author, reqno⟩.
type gen struct {
	workload string
	seed     uint64
	keys     int
}

func (g *gen) author(phase string, i int) hashsig.Digest {
	return hashsig.Sum([]byte(fmt.Sprintf("clusterbench/%s/%d/%s/%d", g.workload, g.seed, phase, i)))
}

func (g *gen) rng(phase string, i int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", phase, i)
	return rand.New(rand.NewPCG(g.seed, h.Sum64()))
}

func keyName(k int) string { return fmt.Sprintf("k%06d", k) }

func randomValue(rng *rand.Rand) []byte {
	v := make([]byte, valueLen)
	for i := 0; i < valueLen; i += 8 {
		x := rng.Uint64()
		for j := 0; j < 8; j++ {
			v[i+j] = byte(x >> (8 * j))
		}
	}
	return v
}

// put is one measured request body: a single put of a 32-byte value to a
// key drawn uniformly from the preloaded key space.
func (g *gen) put(rng *rand.Rand) []byte {
	return ledger.EncodeOps([]ledger.Op{{Key: keyName(rng.IntN(g.keys)), Val: randomValue(rng)}})
}

// stream returns logical client i's request sequence in a closed-loop phase.
func (g *gen) stream(phase string, i int) func() ledger.Request {
	author, rng := g.author(phase, i), g.rng(phase, i)
	var reqNo uint64
	return func() ledger.Request {
		reqNo++
		return ledger.Request{Author: author, ReqNo: reqNo, Body: g.put(rng)}
	}
}

// openRequests lays out an open-loop phase: request i comes from logical
// client i mod authors.
func (g *gen) openRequests(phase string, n, authors int) []ledger.Request {
	rng := g.rng(phase, 0)
	ids := make([]hashsig.Digest, authors)
	for i := range ids {
		ids[i] = g.author(phase, i)
	}
	reqNos := make([]uint64, authors)
	reqs := make([]ledger.Request, n)
	for i := range reqs {
		a := i % authors
		reqNos[a]++
		reqs[i] = ledger.Request{Author: ids[a], ReqNo: reqNos[a], Body: g.put(rng)}
	}
	return reqs
}

// preloadRequests fills the key space with multi-op requests of opsPer puts.
func (g *gen) preloadRequests(opsPer int) []ledger.Request {
	rng := g.rng("preload", 0)
	var reqs []ledger.Request
	for lo := 0; lo < g.keys; lo += opsPer {
		ops := make([]ledger.Op, 0, opsPer)
		for k := lo; k < min(lo+opsPer, g.keys); k++ {
			ops = append(ops, ledger.Op{Key: keyName(k), Val: randomValue(rng)})
		}
		reqs = append(reqs, ledger.Request{Author: g.author("preload", len(reqs)), ReqNo: 1, Body: ledger.EncodeOps(ops)})
	}
	return reqs
}

type submitFn func(rq *ledger.Request) (node.SubmitResult, error)

// client is the benchmark's client side: it submits, checks every receipt
// it gets, and counts what it saw.
type client struct {
	pubs     []*hashsig.PublicKey
	tr       *tracer
	tamperAt int64

	measured    atomic.Int64
	inflight    atomic.Int64
	maxInflight atomic.Int64

	mu       sync.Mutex
	problems []string
	receipts []*ledger.Receipt // traced runs: every accepted receipt, for the replay check
}

func newClient(pubs []*hashsig.PublicKey, tr *tracer, tamperAt int) *client {
	return &client{pubs: pubs, tr: tr, tamperAt: int64(tamperAt)}
}

func (c *client) problem(format string, args ...any) {
	c.mu.Lock()
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// do submits rq and checks its receipt. It reports the latency from origin
// (the due time in an open loop, the submit time in a closed one) to the
// checked receipt, and whether the final verdict was a verified commit.
func (c *client) do(rq *ledger.Request, origin time.Time, submit submitFn, measured bool) (time.Duration, bool) {
	var reqID uint64
	if c.tr != nil {
		reqID = c.tr.newID()
	}
	n := c.inflight.Add(1)
	for {
		m := c.maxInflight.Load()
		if n <= m || c.maxInflight.CompareAndSwap(m, n) {
			break
		}
	}
	sent := time.Now()
	res, err := submit(rq)
	got := time.Now()
	c.inflight.Add(-1)
	if c.tr != nil {
		c.tr.requestSpan(c.tr.newID(), reqID, "node.submit", sent, got, rq)
	}
	if err != nil || res.Status != node.StatusCommitted {
		return 0, false
	}
	rc := res.Receipt
	if measured && c.tamperAt > 0 && c.measured.Add(1) == c.tamperAt && rc != nil {
		rc = tamper(rc)
	}
	ok := c.checkReceipt(rq, rc, reqID)
	done := time.Now()
	if c.tr != nil {
		c.tr.requestSpan(reqID, 0, "client.request", origin, done, rq)
	}
	return done.Sub(origin), ok
}

// checkReceipt accepts a receipt only if it names the submitted ⟨author,
// reqno⟩ and payload and verifies under a replica key, trying the keys in
// turn as a client that does not track the primary would.
func (c *client) checkReceipt(rq *ledger.Request, rc *ledger.Receipt, parent uint64) bool {
	if rc == nil {
		c.problem("reqno %d of author %x committed without a receipt", rq.ReqNo, rq.Author[:4])
		return false
	}
	e := &rc.Entry
	if e.Kind != ledger.KindTransaction || e.Author != rq.Author || e.ReqNo != rq.ReqNo || !bytes.Equal(e.Payload, rq.Body) {
		c.problem("receipt names author %x reqno %d, submitted author %x reqno %d", e.Author[:4], e.ReqNo, rq.Author[:4], rq.ReqNo)
		return false
	}
	start := time.Now()
	for _, pub := range c.pubs {
		t0 := time.Now()
		ok := rc.Verify(pub)
		if c.tr != nil {
			c.tr.c[cVerifies].Add(1)
			c.tr.c[cVerifyNs].Add(int64(time.Since(t0)))
		}
		if !ok {
			continue
		}
		if c.tr != nil {
			c.tr.c[cVerified].Add(1)
			c.tr.requestSpan(c.tr.newID(), parent, "client.verify", start, time.Now(), rq)
			c.mu.Lock()
			c.receipts = append(c.receipts, rc)
			c.mu.Unlock()
		}
		return true
	}
	c.problem("receipt for author %x reqno %d verifies under no replica key", rq.Author[:4], rq.ReqNo)
	return false
}

// tamper returns a copy of rc with one audit-path (or signature) byte
// flipped: it still names the right request but must not verify.
func tamper(rc *ledger.Receipt) *ledger.Receipt {
	bad := *rc
	if len(rc.Path) > 0 {
		bad.Path = append([]hashsig.Digest(nil), rc.Path...)
		bad.Path[0][0] ^= 1
	} else {
		bad.Header.Sig = append(hashsig.Signature(nil), rc.Header.Sig...)
		bad.Header.Sig[len(bad.Header.Sig)/2] ^= 1
	}
	return &bad
}

// phase is what one load phase measured.
type phase struct {
	attempted, failed, good int
	lat                     []time.Duration // per verified request
	at                      []time.Duration // per verified request: due (open) or done (closed) time since start
	lag                     []time.Duration // open loop: send time minus due time
	start, end              time.Time       // open loop: first due time, last verdict
}

func (p *phase) record(lat, at time.Duration, ok bool, mu *sync.Mutex) {
	mu.Lock()
	defer mu.Unlock()
	p.attempted++
	if ok {
		p.good++
		p.lat = append(p.lat, lat)
		p.at = append(p.at, at)
	} else {
		p.failed++
	}
}

// maxSegments bounds how many equal time segments a phase is cut into; a
// segment must hold at least minSegmentSamples verified requests so that
// its p99 has ten samples beyond it.
const (
	maxSegments       = 5
	minSegmentSamples = 1000
)

func segments(samples int) int { return max(1, min(maxSegments, samples/minSegmentSamples)) }

// segmentQuantile cuts [0, span) into equal segments and returns the median
// over segments of each segment's q-quantile latency in ms. Latency comes
// in bursts lasting a fraction of a second; the median over segments keeps
// one burst from moving a run's figure.
func (p *phase) segmentQuantile(span time.Duration, q float64) float64 {
	return median(p.segmentQuantiles(span, q))
}

// segmentQuantiles returns each segment's q-quantile latency in ms.
func (p *phase) segmentQuantiles(span time.Duration, q float64) []float64 {
	n := segments(len(p.lat))
	buckets := make([][]float64, n)
	for i, at := range p.at {
		k := min(n-1, max(0, int(int64(at)*int64(n)/int64(span))))
		buckets[k] = append(buckets[k], float64(p.lat[i])/float64(time.Millisecond))
	}
	var qs []float64
	for _, b := range buckets {
		if len(b) > 0 {
			qs = append(qs, quantile(b, q))
		}
	}
	return qs
}

// rateWithin is verified requests per second over [0, span), counting
// each request when it completed.
func (p *phase) rateWithin(span time.Duration) float64 {
	n := 0
	for _, at := range p.at {
		if at < span {
			n++
		}
	}
	return float64(n) / span.Seconds()
}

// openLoop sends reqs at a fixed rate, each from its own goroutine, timing
// every request from its due time.
func (c *client) openLoop(reqs []ledger.Request, rate float64, submit submitFn) *phase {
	p := &phase{lag: make([]time.Duration, 0, len(reqs))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	interval := float64(time.Second) / rate
	p.start = time.Now()
	for i := range reqs {
		due := p.start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		p.lag = append(p.lag, time.Since(due))
		wg.Add(1)
		go func(rq *ledger.Request, due time.Time) {
			defer wg.Done()
			lat, ok := c.do(rq, due, submit, true)
			p.record(lat, due.Sub(p.start), ok, &mu)
		}(&reqs[i], due)
	}
	wg.Wait()
	p.end = time.Now()
	return p
}

// closedLoop runs clients logical clients, each sending its next request
// when the previous one resolves, until dur has passed.
func (c *client) closedLoop(g *gen, name string, clients int, dur time.Duration, submit submitFn, measured bool) *phase {
	p := &phase{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	p.start = time.Now()
	deadline := p.start.Add(dur)
	for i := 0; i < clients; i++ {
		next := g.stream(name, i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				rq := next()
				lat, ok := c.do(&rq, time.Now(), submit, measured)
				p.record(lat, time.Since(p.start), ok, &mu)
			}
		}()
	}
	wg.Wait()
	p.end = time.Now()
	return p
}

// rpcClient is one submission RPC connection that follows NotPrimary hints
// and moves to the next node when a connection fails.
type rpcClient struct {
	addrs  []string
	target int
	cl     *node.RPCClient
}

const rpcTimeout = 5 * time.Second

func (r *rpcClient) submit(rq *ledger.Request) (node.SubmitResult, error) {
	var lastErr error
	for attempt := 0; attempt < 2*len(r.addrs); attempt++ {
		if r.cl == nil {
			cl, err := node.DialRPC(r.addrs[r.target], rpcTimeout)
			if err != nil {
				lastErr = err
				r.target = (r.target + 1) % len(r.addrs)
				continue
			}
			r.cl = cl
		}
		res, err := r.cl.Submit(rq, rpcTimeout)
		if err != nil {
			lastErr = err
			r.close()
			r.target = (r.target + 1) % len(r.addrs)
			continue
		}
		if res.Status != node.StatusNotPrimary {
			return res, nil
		}
		r.close()
		if next := int(res.Leader); next >= 0 && next < len(r.addrs) && next != r.target {
			r.target = next
		} else {
			r.target = (r.target + 1) % len(r.addrs)
		}
	}
	return node.SubmitResult{}, fmt.Errorf("rpc: gave up on reqno %d: %v", rq.ReqNo, lastErr)
}

func (r *rpcClient) close() {
	if r.cl != nil {
		r.cl.Close()
		r.cl = nil
	}
}
