package node

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"iaccf/internal/consensus"
	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
	"iaccf/internal/transport"
	"iaccf/internal/txpool"
)

// hubCluster is a 4-node cluster on one lossless, in-order transport.Hub
// with a ManualClock per node: frames move only when the test steps the
// hub, and ticks happen only when it advances a clock.
type hubCluster struct {
	hub    *transport.Hub
	nodes  []*Node
	clocks []*ManualClock
	pools  []*txpool.Pool
	pubs   []*hashsig.PublicKey
}

func startHubCluster(t *testing.T, seed string) *hubCluster {
	t.Helper()
	const n = 4
	keys, pubs := clusterKeys(seed, n)
	c := &hubCluster{hub: transport.NewHub(1, transport.TamperPolicy{}), pubs: pubs}
	for i := 0; i < n; i++ {
		proxy := &transport.HandlerProxy{}
		tp := c.hub.Endpoint(transport.NodeID(i), proxy.Handle)
		clk := NewManualClock()
		t.Cleanup(clk.Stop)
		pool := txpool.New(txpool.Config{})
		nd, err := New(Config{
			Consensus: consensus.Config{
				ID:              consensus.ReplicaID(i),
				Key:             keys[i],
				Peers:           pubs,
				App:             ledger.KVApp{},
				CheckpointEvery: 4,
				Shards:          1,
			},
			Transport: tp,
			Clock:     clk,
			Pool:      pool,
		})
		if err != nil {
			t.Fatal(err)
		}
		proxy.Set(nd.InboundHandler())
		nd.Start()
		t.Cleanup(nd.Stop)
		c.nodes = append(c.nodes, nd)
		c.clocks = append(c.clocks, clk)
		c.pools = append(c.pools, pool)
	}
	return c
}

// submitAsync submits rq to node i without blocking on its commit, which
// needs the test to step the hub. It returns once the run loop has
// finished handling the submission: the request shows up in the pool or
// as a proposal in the hub, and then a barrier submission round-trips.
func (c *hubCluster) submitAsync(t *testing.T, i int, rq ledger.Request) <-chan SubmitResult {
	t.Helper()
	pooled, sent := c.pools[i].Len(), c.hub.Pending()
	res := make(chan SubmitResult, 1)
	go func() { res <- c.nodes[i].Submit(rq) }()
	deadline := time.Now().Add(10 * time.Second)
	for c.pools[i].Len() == pooled && c.hub.Pending() == sent {
		if time.Now().After(deadline) {
			t.Fatalf("node %d neither pooled nor proposed request %d", i, rq.ReqNo)
		}
		time.Sleep(100 * time.Microsecond)
	}
	// An oversized request is refused from inside the run loop, which
	// handles one event at a time.
	big := ledger.Request{Author: hashsig.Sum([]byte("barrier")), ReqNo: 1,
		Body: make([]byte, ledger.MaxRequestLen+1)}
	if st := c.nodes[i].Submit(big).Status; st != StatusTooLarge {
		t.Fatalf("barrier submission answered %v", st)
	}
	return res
}

// stop halts every run loop; afterwards the test may read replica state.
func (c *hubCluster) stop() {
	for _, nd := range c.nodes {
		nd.Stop()
	}
}

func pacingRequest(author hashsig.Digest, reqNo uint64) ledger.Request {
	return ledger.Request{
		Author: author,
		ReqNo:  reqNo,
		Body:   ledger.EncodeOps([]ledger.Op{{Key: fmt.Sprintf("k%d", reqNo), Val: []byte("v")}}),
	}
}

// collect delivers hub frames until every result channel has answered,
// and requires each answer to be a committed, verifying receipt for its
// request. When the hub is empty it yields briefly, since the run loops
// may still be handling frames and sending their answers.
func (c *hubCluster) collect(t *testing.T, rqs []ledger.Request, results []<-chan SubmitResult) {
	t.Helper()
	got := make([]*SubmitResult, len(results))
	deadline := time.Now().Add(10 * time.Second)
	for waiting := len(results); ; {
		for i, ch := range results {
			if got[i] != nil {
				continue
			}
			select {
			case r := <-ch:
				got[i] = &r
				waiting--
			default:
			}
		}
		if waiting == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests still uncommitted (hub holds %d frames)",
				waiting, len(results), c.hub.Pending())
		}
		if c.hub.Pending() > 0 {
			c.hub.Step()
		} else {
			time.Sleep(100 * time.Microsecond)
		}
	}
	for i, r := range got {
		if r.Status != StatusCommitted || r.Receipt == nil {
			t.Fatalf("request %d: status %v receipt %v", rqs[i].ReqNo, r.Status, r.Receipt != nil)
		}
		if r.Receipt.Entry.ReqNo != rqs[i].ReqNo || !r.Receipt.Verify(c.pubs[0]) {
			t.Fatalf("request %d: receipt does not verify under the primary's key", rqs[i].ReqNo)
		}
	}
}

// TestProposePacing pins the proposal pacing rule with clocks that never
// tick. A request reaching an idle primary is proposed at once and
// commits without any tick. Requests arriving while that instance is in
// flight coalesce in the pool, and the commit that empties the window
// sends all of them out as one batch at the next sequence.
func TestProposePacing(t *testing.T) {
	c := startHubCluster(t, "pacing")
	author := hashsig.Sum([]byte("pacing-client"))

	first := pacingRequest(author, 1)
	firstRes := c.submitAsync(t, 0, first)
	if l := c.pools[0].Len(); l != 0 {
		t.Fatalf("idle primary left %d requests pooled, want the first proposed at once", l)
	}
	held := c.hub.Pending()
	if held == 0 {
		t.Fatal("idle primary sent no pre-prepare for the first request")
	}

	// Seq 1's frames stay in the hub: the primary is not idle, so the
	// next requests must wait in the pool.
	const k = 5
	var rqs []ledger.Request
	var results []<-chan SubmitResult
	for i := 0; i < k; i++ {
		rq := pacingRequest(author, uint64(2+i))
		rqs = append(rqs, rq)
		results = append(results, c.submitAsync(t, 0, rq))
	}
	if l, p := c.pools[0].Len(), c.hub.Pending(); l != k || p != held {
		t.Fatalf("with seq 1 in flight: pool %d (want %d), hub frames %d (want %d)", l, k, p, held)
	}

	c.collect(t, append([]ledger.Request{first}, rqs...),
		append([]<-chan SubmitResult{firstRes}, results...))
	c.stop()

	led := c.nodes[0].rep.Ledger()
	if b := led.BatchAt(1); b == nil || len(b.Entries) != 1 {
		t.Fatalf("seq 1 should hold the first request alone, got %v", b)
	}
	b := led.BatchAt(2)
	if b == nil || len(b.Entries) != k {
		t.Fatalf("seq 2 should batch all %d coalesced requests, got %v", k, b)
	}
	for i := range b.Entries {
		if b.Entries[i].ReqNo != rqs[i].ReqNo {
			t.Fatalf("seq 2 entry %d is ReqNo %d, want %d", i, b.Entries[i].ReqNo, rqs[i].ReqNo)
		}
	}
	if s := c.nodes[0].CommittedSeqs(); s != 2 {
		t.Fatalf("primary committed %d batches, want 2", s)
	}
}

// TestIdleBeyondStallTicks: a cluster that sat idle for longer than
// stallTicks must not read the first proposal after the quiet spell as a
// stall. The tick lands after the proposal and before any frame moves, so
// the primary sees work in flight with no commit since the idle spell.
func TestIdleBeyondStallTicks(t *testing.T) {
	c := startHubCluster(t, "idle-stall")
	for _, clk := range c.clocks {
		clk.Advance(stallTicks + 8)
	}
	rq := pacingRequest(hashsig.Sum([]byte("idle-client")), 1)
	res := c.submitAsync(t, 0, rq)
	for _, clk := range c.clocks {
		clk.Advance(1)
	}
	c.collect(t, []ledger.Request{rq}, []<-chan SubmitResult{res})
	c.stop()
	for i, nd := range c.nodes {
		st := nd.rep.DebugState()
		if nd.rep.View() != 0 || !strings.Contains(st, "vc false") {
			t.Fatalf("node %d left view 0 or started a view change: %s", i, st)
		}
	}
}
