package main

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"iaccf/internal/consensus"
	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
	"iaccf/internal/node"
	"iaccf/internal/transport"
	"iaccf/internal/txpool"
)

// The cluster uses cmd/node's defaults.
const (
	replicas        = 4
	tickInterval    = 5 * time.Millisecond
	checkpointEvery = 4
	shards          = 1
	batchMax        = 64
	keySeed         = "clusterbench"
)

// clusterKeys derives the replica keys as cmd/node does from -seed.
func clusterKeys() ([]*hashsig.PrivateKey, []*hashsig.PublicKey) {
	keys := make([]*hashsig.PrivateKey, replicas)
	pubs := make([]*hashsig.PublicKey, replicas)
	for i := range keys {
		keys[i] = hashsig.GenerateKeyFromSeed(fmt.Sprintf("%s/%d", keySeed, i))
		pubs[i] = keys[i].Public()
	}
	return keys, pubs
}

// cluster is a 4-replica cluster inside this process, each replica wired
// as cmd/node wires it: TCP transport on 127.0.0.1, wall clock, node,
// submission RPC.
type cluster struct {
	pubs   []*hashsig.PublicKey
	tcps   []*transport.TCP
	clocks []node.Clock
	nodes  []*node.Node
	rpcs   []*node.RPCServer
	addrs  []string // RPC addresses by node ID
	leader atomic.Int32
}

// bootCluster starts the cluster. With a tracer, the transport, inbound
// handler, clock and application of every replica are wrapped.
func bootCluster(tr *tracer) (*cluster, error) {
	keys, pubs := clusterKeys()
	c := &cluster{pubs: pubs}
	addrs, err := reserveAddrs(replicas)
	if err != nil {
		return nil, err
	}
	for i := 0; i < replicas; i++ {
		if err := c.startReplica(i, keys[i], addrs, tr); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func (c *cluster) startReplica(i int, key *hashsig.PrivateKey, addrs map[transport.NodeID]string, tr *tracer) error {
	proxy := &transport.HandlerProxy{}
	tcp, err := transport.ListenTCP(transport.TCPConfig{
		Self:    transport.NodeID(i),
		Addrs:   addrs,
		Handler: proxy.Handle,
	})
	if err != nil {
		return err
	}
	c.tcps = append(c.tcps, tcp)
	pool := txpool.New(txpool.Config{})
	var (
		tp  transport.Transport = tcp
		clk node.Clock          = node.NewWallClock(tickInterval)
		app ledger.App          = ledger.KVApp{}
	)
	if tr != nil {
		tp = &tracedTransport{inner: tcp, self: transport.NodeID(i), t: tr}
		clk = tr.wrapClock(clk, i == 0, pool)
		app = tracedApp{t: tr}
	}
	c.clocks = append(c.clocks, clk)
	nd, err := node.New(node.Config{
		Consensus: consensus.Config{
			ID:              consensus.ReplicaID(i),
			Key:             key,
			Peers:           c.pubs,
			App:             app,
			CheckpointEvery: checkpointEvery,
			Shards:          shards,
		},
		Transport: tp,
		Clock:     clk,
		Pool:      pool,
		BatchMax:  batchMax,
	})
	if err != nil {
		return err
	}
	h := nd.InboundHandler()
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	proxy.Set(h)
	nd.Start()
	c.nodes = append(c.nodes, nd)
	srv, err := node.ServeRPC(nd, "127.0.0.1:0")
	if err != nil {
		return err
	}
	c.rpcs = append(c.rpcs, srv)
	c.addrs = append(c.addrs, srv.Addr().String())
	return nil
}

// reserveAddrs picks free loopback ports for the replica transports.
func reserveAddrs(n int) (map[transport.NodeID]string, error) {
	addrs := make(map[transport.NodeID]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[transport.NodeID(i)] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

// close stops every replica and waits for their goroutines.
func (c *cluster) close() {
	for _, s := range c.rpcs {
		s.Close()
	}
	for _, n := range c.nodes {
		n.Stop()
	}
	for _, k := range c.clocks {
		k.Stop()
	}
	for _, t := range c.tcps {
		t.Close()
	}
}

func (c *cluster) dropped() uint64 {
	var d uint64
	for _, t := range c.tcps {
		d += t.Dropped()
	}
	return d
}

// quiesce waits until every replica reports the same CommittedSeqs and
// CommittedEntries, stable across consecutive polls.
func (c *cluster) quiesce(timeout time.Duration) (seqs, entries []uint64, ok bool) {
	deadline := time.Now().Add(timeout)
	stable := 0
	var last []uint64
	for {
		seqs, entries = make([]uint64, len(c.nodes)), make([]uint64, len(c.nodes))
		equal := true
		for i, n := range c.nodes {
			seqs[i], entries[i] = n.CommittedSeqs(), n.CommittedEntries()
			if seqs[i] != seqs[0] || entries[i] != entries[0] {
				equal = false
			}
		}
		if equal && last != nil && last[0] == seqs[0] {
			stable++
		} else {
			stable = 0
		}
		last = seqs
		if stable >= 3 {
			return seqs, entries, true
		}
		if time.Now().After(deadline) {
			return seqs, entries, false
		}
		time.Sleep(20 * time.Millisecond)
	}
}
