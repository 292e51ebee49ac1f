package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iaccf/internal/consensus"
	"iaccf/internal/kv"
	"iaccf/internal/ledger"
	"iaccf/internal/node"
	"iaccf/internal/transport"
	"iaccf/internal/txpool"
)

// ctr names one tracer counter. Counters are read as snapshots at the
// window's edges, so every per-layer ratio is a delta over the measured
// window only.
type ctr int

const (
	cSendCalls   ctr = iota // Transport.Send/Broadcast calls
	cSendNs                 // time inside the wrapped transport's Send/Broadcast
	cFrames                 // frames queued (a broadcast counts once per peer)
	cBytes                  // bytes queued
	cRetransmits            // frames identical to one already sent on the same lane
	cDecodes                // consensus.DecodeMessage calls on sent frames
	cDecodeNs
	cSyncFrames
	cPrePrepares // messages by type; a broadcast counts once
	cPrepares
	cCommits
	cInbound // node InboundHandler calls
	cInboundNs
	cExecutes // ledger.App.Execute calls, all replicas
	cExecuteNs
	cTicks // ticks forwarded to the primary
	cVerifies
	cVerifyNs
	cVerified // receipts accepted by a Verify call
	nCtr
)

type counters [nCtr]atomic.Int64

func (c *counters) snap() (s [nCtr]int64) {
	for i := range c {
		s[i] = c[i].Load()
	}
	return s
}

// span is one timed call at a layer boundary. Request spans carry the
// request's ⟨author, reqno⟩ (author as its first 8 bytes); frame spans
// carry ⟨type, seq⟩. Parent is the span that caused this one (0: none).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Author string `json:"author,omitempty"`
	ReqNo  uint64 `json:"reqno,omitempty"`
	Type   uint8  `json:"type,omitempty"`
	Seq    uint64 `json:"seq,omitempty"`
}

// maxSpans caps the in-memory span buffer; later spans are counted, not kept.
const maxSpans = 1 << 17

type frameRef struct {
	span uint64
	typ  consensus.MsgType
	seq  uint64
}

type laneKey struct {
	from, to transport.NodeID
	hash     uint64
}

type depthSample struct {
	at    time.Time
	depth int
}

// tracer holds everything a traced run records. A nil *tracer means a
// plain run: no wrapper is installed and no span is recorded.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	c     counters
	seed  maphash.Seed

	mu    sync.Mutex
	spans []span
	lost  int

	fmu   sync.Mutex
	sent  map[uint64]frameRef
	lanes map[laneKey]struct{}

	maxView atomic.Uint64

	pmu    sync.Mutex
	pp     map[uint64]*consensus.PrePrepare // highest-view pre-prepare per seq
	depths []depthSample                    // primary pool depth per tick
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		seed:  maphash.MakeSeed(),
		sent:  make(map[uint64]frameRef),
		lanes: make(map[laneKey]struct{}),
		pp:    make(map[uint64]*consensus.PrePrepare),
	}
}

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.lost++
	}
	t.mu.Unlock()
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// requestSpan records a span of one client request.
func (t *tracer) requestSpan(id, parent uint64, name string, start, end time.Time, rq *ledger.Request) {
	t.add(span{ID: id, Parent: parent, Name: name, Start: t.since(start), End: t.since(end),
		Author: fmt.Sprintf("%x", rq.Author[:8]), ReqNo: rq.ReqNo})
}

// tracedTransport wraps one replica's transport. It classifies every frame
// the replica sends, counts frames, bytes and retransmits per lane, times
// the inner call, and captures pre-prepares for the post-run checks.
type tracedTransport struct {
	inner *transport.TCP
	self  transport.NodeID
	t     *tracer
}

func (w *tracedTransport) Send(to transport.NodeID, frame []byte) error {
	if to == w.self {
		return w.inner.Send(to, frame)
	}
	return w.t.onSend(w.self, []transport.NodeID{to}, frame, func() error { return w.inner.Send(to, frame) })
}

func (w *tracedTransport) Broadcast(frame []byte) error {
	lanes := make([]transport.NodeID, 0, replicas-1)
	for i := 0; i < replicas; i++ {
		if transport.NodeID(i) != w.self {
			lanes = append(lanes, transport.NodeID(i))
		}
	}
	return w.t.onSend(w.self, lanes, frame, func() error { return w.inner.Broadcast(frame) })
}

func (w *tracedTransport) Close() error { return w.inner.Close() }

func (t *tracer) onSend(from transport.NodeID, lanes []transport.NodeID, frame []byte, send func() error) error {
	start := time.Now()
	m, err := consensus.DecodeMessage(frame)
	decoded := time.Now()
	t.c[cDecodes].Add(1)
	t.c[cDecodeNs].Add(int64(decoded.Sub(start)))
	var typ consensus.MsgType
	var seq uint64
	if err == nil {
		typ, seq = t.classify(m)
	}
	id, decodeID := t.newID(), t.newID()
	h := maphash.Bytes(t.seed, frame)
	t.fmu.Lock()
	for _, to := range lanes {
		k := laneKey{from: from, to: to, hash: h}
		if _, dup := t.lanes[k]; dup {
			t.c[cRetransmits].Add(1)
		} else {
			t.lanes[k] = struct{}{}
		}
	}
	if _, ok := t.sent[h]; !ok {
		t.sent[h] = frameRef{span: id, typ: typ, seq: seq}
	}
	t.fmu.Unlock()

	sendStart := time.Now()
	serr := send()
	end := time.Now()
	t.c[cSendCalls].Add(1)
	t.c[cSendNs].Add(int64(end.Sub(sendStart)))
	t.c[cFrames].Add(int64(len(lanes)))
	t.c[cBytes].Add(int64(len(frame) * len(lanes)))
	t.add(span{ID: id, Name: "transport.send", Start: t.since(start), End: t.since(end), Type: uint8(typ), Seq: seq})
	t.add(span{ID: decodeID, Parent: id, Name: "consensus.decode", Start: t.since(start), End: t.since(decoded), Type: uint8(typ), Seq: seq})
	return serr
}

// classify counts a sent message by type and returns its ⟨type, seq⟩.
func (t *tracer) classify(m consensus.Message) (consensus.MsgType, uint64) {
	var seq, view uint64
	switch m := m.(type) {
	case *consensus.PrePrepare:
		t.c[cPrePrepares].Add(1)
		seq, view = m.Prop.Header.Seq, m.Prop.View
		t.pmu.Lock()
		if old, ok := t.pp[seq]; !ok || old.Prop.View < view {
			t.pp[seq] = m
		}
		t.pmu.Unlock()
	case *consensus.Prepare:
		t.c[cPrepares].Add(1)
		seq, view = m.Prop.Header.Seq, m.Prop.View
	case *consensus.Commit:
		t.c[cCommits].Add(1)
		seq, view = m.Seq, m.View
	case *consensus.ViewChange:
		view = m.NewView
	case *consensus.NewView:
		view = m.View
	default:
		t.c[cSyncFrames].Add(1)
	}
	for {
		cur := t.maxView.Load()
		if view <= cur || t.maxView.CompareAndSwap(cur, view) {
			break
		}
	}
	return m.Type(), seq
}

// wrapHandler times the node's InboundHandler and links each inbound frame
// to the send span of the identical frame.
func (t *tracer) wrapHandler(h transport.Handler) transport.Handler {
	return func(from transport.NodeID, frame []byte) {
		hash := maphash.Bytes(t.seed, frame)
		t.fmu.Lock()
		ref := t.sent[hash]
		t.fmu.Unlock()
		start := time.Now()
		h(from, frame)
		end := time.Now()
		t.c[cInbound].Add(1)
		t.c[cInboundNs].Add(int64(end.Sub(start)))
		t.add(span{ID: t.newID(), Parent: ref.span, Name: "node.inbound", Start: t.since(start), End: t.since(end),
			Type: uint8(ref.typ), Seq: ref.seq})
	}
}

// tracedClock forwards a wall clock's ticks to the node, counting the
// primary's ticks and sampling its pool depth on each.
type tracedClock struct {
	inner   node.Clock
	out     chan time.Time
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
	primary bool
	pool    *txpool.Pool
	t       *tracer
}

func (t *tracer) wrapClock(inner node.Clock, primary bool, pool *txpool.Pool) *tracedClock {
	c := &tracedClock{inner: inner, out: make(chan time.Time), stop: make(chan struct{}), done: make(chan struct{}),
		primary: primary, pool: pool, t: t}
	go c.run()
	return c
}

func (c *tracedClock) run() {
	defer close(c.done)
	for {
		select {
		case tick := <-c.inner.C():
			if c.primary {
				c.t.c[cTicks].Add(1)
				d := depthSample{at: time.Now(), depth: c.pool.Len()}
				c.t.pmu.Lock()
				c.t.depths = append(c.t.depths, d)
				c.t.pmu.Unlock()
			}
			select {
			case c.out <- tick:
			case <-c.stop:
				return
			}
		case <-c.stop:
			return
		}
	}
}

func (c *tracedClock) C() <-chan time.Time { return c.out }

func (c *tracedClock) Stop() {
	c.once.Do(func() { close(c.stop) })
	<-c.done
	c.inner.Stop()
}

// tracedApp counts and times Execute calls. It forwards Footprint so the
// ledger keeps the executor it picks for ledger.KVApp.
type tracedApp struct {
	inner ledger.KVApp
	t     *tracer
}

func (a tracedApp) Execute(tx *kv.Tx, request []byte) error {
	start := time.Now()
	err := a.inner.Execute(tx, request)
	a.t.c[cExecuteNs].Add(int64(time.Since(start)))
	a.t.c[cExecutes].Add(1)
	return err
}

func (a tracedApp) Footprint(request []byte) ([]string, bool) { return a.inner.Footprint(request) }

// capturedStream returns the captured pre-prepare batches in seq order,
// and the view each was proposed in.
func (t *tracer) capturedStream() ([]*ledger.Batch, []uint64) {
	t.pmu.Lock()
	defer t.pmu.Unlock()
	seqs := make([]uint64, 0, len(t.pp))
	for s := range t.pp {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	batches := make([]*ledger.Batch, len(seqs))
	views := make([]uint64, len(seqs))
	for i, s := range seqs {
		batches[i] = t.pp[s].Batch()
		views[i] = t.pp[s].Prop.View
	}
	return batches, views
}

// depthStats summarizes the primary's pool depth over [from, to].
func (t *tracer) depthStats(from, to time.Time) (mean float64, max int) {
	t.pmu.Lock()
	defer t.pmu.Unlock()
	n, sum := 0, 0
	for _, d := range t.depths {
		if d.at.Before(from) || d.at.After(to) {
			continue
		}
		n++
		sum += d.depth
		if d.depth > max {
			max = d.depth
		}
	}
	if n > 0 {
		mean = float64(sum) / float64(n)
	}
	return mean, max
}

// spanStat is one span name's count, mean duration and mean self time.
type spanStat struct {
	name               string
	count              int
	meanUs, selfMeanUs float64
}

// selfTimes computes, per span name, the mean duration and the mean self
// time: a span's duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() []spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][]int)
	for i := range t.spans {
		if p := t.spans[i].Parent; p != 0 {
			children[p] = append(children[p], i)
		}
	}
	type acc struct {
		n         int
		dur, self int64
	}
	by := make(map[string]*acc)
	for i := range t.spans {
		s := &t.spans[i]
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		d := s.End - s.Start
		a.n++
		a.dur += d
		a.self += d - covered(s, t.spans, children[s.ID])
	}
	var out []spanStat
	for name, a := range by {
		out = append(out, spanStat{name: name, count: a.n,
			meanUs: float64(a.dur) / float64(a.n) / 1e3, selfMeanUs: float64(a.self) / float64(a.n) / 1e3})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's. Children that are causally linked but run later (an
// inbound frame after its send) fall outside and do not count.
func covered(p *span, all []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(all[k].Start, p.Start), min(all[k].End, p.End)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}

// writeSpans writes the span buffer as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	lost := t.lost
	t.mu.Unlock()
	if lost > 0 {
		fmt.Fprintf(w, "{\"lost_spans\":%d}\n", lost)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
