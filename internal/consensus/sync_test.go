package consensus

import (
	"errors"
	"maps"
	"testing"

	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
	"iaccf/internal/wire"
)

// envelope is one routed message in the sync tests' delivery loop.
type envelope struct {
	from ReplicaID
	out  Outbound
}

// route delivers envelopes among the listed replicas until quiescence: a
// broadcast reaches every listed replica but its sender, a unicast only
// its Dest. tamper, when set, sees every delivery before it happens and
// may return a replacement (it must copy rather than mutate — broadcasts
// are shared) or nil to drop it. Handle errors are returned per receiving
// replica.
func (c *cluster) route(from ReplicaID, outs []Outbound, only []ReplicaID, tamper func(to ReplicaID, m Message) Message) map[ReplicaID][]error {
	c.t.Helper()
	errs := map[ReplicaID][]error{}
	var queue []envelope
	for _, o := range outs {
		queue = append(queue, envelope{from, o})
	}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		for _, to := range only {
			if to == e.from || (!e.out.IsBroadcast() && e.out.Dest != to) {
				continue
			}
			m := e.out.Msg
			if tamper != nil {
				if m = tamper(to, m); m == nil {
					continue
				}
			}
			out, err := c.replicas[to].Handle(m)
			if err != nil {
				errs[to] = append(errs[to], err)
			}
			for _, o := range out {
				queue = append(queue, envelope{to, o})
			}
		}
	}
	return errs
}

// commitWithout has replica 0 propose one batch per request base and
// floods each to commitment among every replica but skip, returning the
// pre-prepares in order.
func (c *cluster) commitWithout(skip ReplicaID, author hashsig.Digest, bases ...uint64) []*PrePrepare {
	c.t.Helper()
	var pps []*PrePrepare
	for _, base := range bases {
		pp, _, err := c.replicas[0].Propose(reqs(author, base, 2))
		if err != nil {
			c.t.Fatalf("Propose: %v", err)
		}
		pps = append(pps, pp)
		c.queue = append(c.queue, pp)
		c.flood(skip)
	}
	return pps
}

// startSync ticks r until it broadcasts its discovery request.
func startSync(t *testing.T, r *Replica) []Outbound {
	t.Helper()
	for i := 0; i < 2*syncPatience; i++ {
		if out := r.SyncTick(); len(out) > 0 {
			return out
		}
	}
	t.Fatalf("replica %d never asked for catch-up (%s)", r.ID(), r.DebugState())
	return nil
}

// TestStalePrepareSkipsVerification: a replayed prepare for an already
// committed sequence number is dropped before any signature work — it
// adds no memo entry, and even a broken signature goes unnoticed, which
// only a skipped verification allows. The same forgery above the committed
// boundary is verified and rejected.
func TestStalePrepareSkipsVerification(t *testing.T) {
	c := newCluster(t, 4, 1)
	author := hashsig.Sum([]byte("client"))
	pp, _, err := c.replicas[0].Propose(reqs(author, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.replicas[1].Handle(pp)
	if err != nil {
		t.Fatal(err)
	}
	prep, ok := out[0].Msg.(*Prepare)
	if !ok {
		t.Fatalf("backup answered with %T, want a prepare", out[0].Msg)
	}
	c.queue = append(c.queue, pp)
	c.queue = append(c.queue, outMsgs(out)...)
	c.flood()
	c.assertAgreement(1, 0, 1, 2, 3)

	r := c.replicas[2]
	r.sigOK = newSigMemo()
	if _, err := r.Handle(prep); err != nil {
		t.Fatalf("stale prepare: %v", err)
	}
	forged := *prep
	forged.Sig = append([]byte(nil), prep.Sig...)
	forged.Sig[len(forged.Sig)/2] ^= 0xff
	if _, err := r.Handle(&forged); err != nil {
		t.Fatalf("stale forged prepare was verified: %v", err)
	}
	if got := r.sigOK.len(); got != 0 {
		t.Fatalf("stale prepares left %d memo entries, want 0", got)
	}

	// Control: above the committed boundary the forgery is verified.
	pp2, _, err := c.replicas[0].Propose(reqs(author, 20, 2))
	if err != nil {
		t.Fatal(err)
	}
	out, err = c.replicas[1].Handle(pp2)
	if err != nil {
		t.Fatal(err)
	}
	live := *out[0].Msg.(*Prepare)
	live.Sig = append([]byte(nil), live.Sig...)
	live.Sig[len(live.Sig)/2] ^= 0xff
	if _, err := r.Handle(&live); !errors.Is(err, ErrInvalid) {
		t.Fatalf("forged in-window prepare accepted: %v", err)
	}
}

// TestQuiescedClusterStopsResending: once every replica has committed and
// nothing is in flight, there is nothing to resend — finished batches are
// never retransmitted (a laggard catches up from their certificates).
func TestQuiescedClusterStopsResending(t *testing.T) {
	c := newCluster(t, 4, 1)
	author := hashsig.Sum([]byte("client"))
	for seq := uint64(1); seq <= 2*DefaultWindow; seq++ {
		c.propose(0, reqs(author, seq*10, 2))
		c.flood()
	}
	c.assertAgreement(2*DefaultWindow, 0, 1, 2, 3)
	for _, r := range c.replicas {
		if got := r.InFlight(); got != 0 {
			t.Fatalf("replica %d has %d instances in flight", r.ID(), got)
		}
		if out := r.Retransmit(); len(out) != 0 {
			t.Fatalf("quiesced replica %d resends %d envelopes (first %T)", r.ID(), len(out), out[0].Msg)
		}
	}
}

// TestLoneViewChangeCatchesUp: replica 3 times out alone, so its
// view-change goes nowhere and it parks every message of the view the
// others keep using. While it waits, replicas 0-2 commit more than a
// window past a checkpoint. The pre-prepares it parked are still evidence
// of that progress, so SyncTick must start catch-up and bring it to their
// committed sequence number while it is still in its view change.
func TestLoneViewChangeCatchesUp(t *testing.T) {
	c := newCluster(t, 4, 1)
	author := hashsig.Sum([]byte("client"))
	lone := c.replicas[3]
	lone.OnTimeout() // its view-change reaches no one
	for seq := uint64(1); seq <= 2*DefaultWindow+1; seq++ {
		c.propose(0, reqs(author, seq*10, 2))
		c.flood() // replica 3 hears everything, but is in its view change
	}
	c.assertAgreement(2*DefaultWindow+1, 0, 1, 2)
	want := c.replicas[0].Committed()
	if lone.Committed() != 0 {
		t.Fatalf("replica in view change committed %d", lone.Committed())
	}
	for i := 0; i < 4*syncPatience && lone.Committed() < want; i++ {
		c.queue = append(c.queue, outMsgs(lone.SyncTick())...)
		c.flood()
	}
	if lone.Committed() != want {
		t.Fatalf("lone view-changer stuck at %d, cluster at %d (%s)", lone.Committed(), want, lone.DebugState())
	}
	if !lone.inViewChange {
		t.Fatal("catch-up ended the view change; it should happen within it")
	}
	ref := c.replicas[0].Ledger()
	if lone.Ledger().HistRoot() != ref.HistRoot() || lone.Ledger().StateDigest() != ref.StateDigest() {
		t.Fatal("caught-up replica diverges from the cluster")
	}
}

// forkSpeculation returns the pre-prepares and prepares by which replicas
// 0-2 of a fork of the test cluster (same keys) prepare one batch per
// request base. Handled by a replica of another cluster, they leave it
// with validly prepared, uncommitted speculation on the fork's chain.
func forkSpeculation(t *testing.T, author hashsig.Digest, bases ...uint64) []Message {
	t.Helper()
	fork := newCluster(t, 4, 1)
	var msgs []Message
	seen := map[Message]bool{}
	for _, base := range bases {
		pp, _, err := fork.replicas[0].Propose(reqs(author, base, 2))
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, pp)
		fork.route(0, []Outbound{toAll(pp)}, []ReplicaID{0, 1, 2}, func(_ ReplicaID, m Message) Message {
			if _, ok := m.(*Prepare); ok && !seen[m] {
				seen[m] = true
				msgs = append(msgs, m)
			}
			return m
		})
	}
	return msgs
}

// inFlight maps each in-flight instance's seq to whether it prepared.
func inFlight(r *Replica) map[uint64]bool {
	w := map[uint64]bool{}
	for seq, in := range r.insts {
		w[seq] = in.preparedCert
	}
	return w
}

// TestFutureViewProposalIsNoEvidence: a validly signed proposal for a
// later view says nothing about what the cluster committed — its signer
// leads that view whether or not anyone follows — so however far ahead it
// claims to be, it must not make an idle replica think it is behind. The
// same proposal in the current view is evidence.
func TestFutureViewProposalIsNoEvidence(t *testing.T) {
	c := newCluster(t, 4, 1)
	r := c.replicas[3]
	signed := func(view uint64, primary ReplicaID) *PrePrepare {
		h := ledger.BatchHeader{Seq: 1000, Shards: 1}
		h.Sig = c.keys[primary].MustSign(h.SigningDigest())
		prop := Proposal{View: view, Primary: primary, Header: h}
		prop.Sig = c.keys[primary].MustSign(prop.SigningDigest())
		return &PrePrepare{Prop: prop}
	}
	if _, err := r.Handle(signed(1, 1)); err != nil {
		t.Fatal(err)
	}
	if r.behind() {
		t.Fatalf("a future-view proposal counted as evidence (%s)", r.DebugState())
	}
	if _, err := r.Handle(signed(0, 0)); err != nil {
		t.Fatal(err)
	}
	if !r.behind() {
		t.Fatalf("a current-view proposal far ahead is no evidence (%s)", r.DebugState())
	}
}

// TestSyncSuffixCatchUp drives the certificate-anchored catch-up between
// one laggard (replica 3) and one server (replica 0) after replicas 0-2
// committed three batches without it. Accepted rows must bring the
// laggard to the server's watermark — from a matching certificate alone
// when the laggard already holds the batches speculatively, else by
// replaying the fetched suffix onto its own committed ledger (replacing
// divergent speculation). Rejected rows tamper with the offer or the data;
// each must be refused, ban the server, and leave the laggard's ledger,
// committed watermark and in-flight window unchanged (in particular, a
// certificate for a different header than the local one must not commit
// the local prefix, and a bad batch replacing divergent speculation must
// not cost the laggard its prepared instances).
func TestSyncSuffixCatchUp(t *testing.T) {
	author := hashsig.Sum([]byte("client"))
	bases := []uint64{10, 20, 30}

	// A fork of the same cluster (same keys) that committed a different
	// batch at the last sequence number: its certificate verifies, but for
	// a header the honest suffix never reaches.
	fork := newCluster(t, 4, 1)
	fork.commitWithout(3, author, 10, 20, 99)
	forkCert := fork.replicas[0].lastCommit

	// tamperBatch corrupts the suffix batch chunk at index.
	tamperBatch := func(index uint64) func(Message) Message {
		return func(m Message) Message {
			ch, ok := m.(*SyncChunk)
			if !ok || ch.Kind != SyncChunkBatch || ch.Index != index {
				return m
			}
			rd := wire.NewBytesReader(ch.Data)
			b := ledger.DecodeBatch(rd)
			b.Entries[0].Result[0] ^= 0xff
			cp := *ch
			cp.Data = encodeBatchChunk(b)
			return &cp
		}
	}

	cases := []struct {
		name        string
		speculative bool // laggard holds the batches uncommitted
		diverge     bool // laggard holds prepared batches that fork at the last seq
		tamper      func(m Message) Message
		wantFetch   bool
		reject      bool
	}{
		{name: "suffix replay", wantFetch: true},
		{name: "matching certificate", speculative: true},
		{name: "suffix replay over divergent speculation", diverge: true, wantFetch: true},
		{
			name: "certificate with too few openings",
			tamper: func(m Message) Message {
				av, ok := m.(*SyncAvail)
				if !ok {
					return m
				}
				cp, cert := *av, *av.Cert
				cert.Opens = cert.Opens[:1]
				cp.Cert = &cert
				return &cp
			},
			reject: true,
		},
		{
			name:      "certificate for a different header than the suffix's last batch",
			tamper:    swapCert(forkCert),
			wantFetch: true,
			reject:    true,
		},
		{
			name:      "suffix batch whose entries do not reproduce its header",
			tamper:    tamperBatch(1),
			wantFetch: true,
			reject:    true,
		},
		{
			name:      "tampered suffix batch over divergent speculation",
			diverge:   true,
			tamper:    tamperBatch(2),
			wantFetch: true,
			reject:    true,
		},
		{
			name:        "certificate for a different header than the local one",
			speculative: true,
			tamper:      swapCert(forkCert),
			wantFetch:   true,
			reject:      true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 4, 1)
			pps := c.commitWithout(3, author, bases...)
			server, lag := c.replicas[0], c.replicas[3]
			switch {
			case tc.speculative:
				for _, pp := range pps {
					if _, err := lag.Handle(pp); err != nil {
						t.Fatal(err)
					}
				}
			case tc.diverge:
				for _, m := range forkSpeculation(t, author, 10, 20, 99) {
					if _, err := lag.Handle(m); err != nil {
						t.Fatal(err)
					}
				}
				if w := inFlight(lag); len(w) != len(bases) || !w[uint64(len(bases))] {
					t.Fatalf("laggard's fork speculation did not prepare: %v", w)
				}
			default:
				lag.noteAhead(server.Committed()) // e.g. a certified view-change claim
			}
			seq, root, committed, window := lag.Ledger().Seq(), lag.Ledger().HistRoot(), lag.Committed(), inFlight(lag)

			fetched := false
			errs := c.route(lag.ID(), startSync(t, lag), []ReplicaID{0, 3}, func(_ ReplicaID, m Message) Message {
				if _, ok := m.(*SyncChunkRequest); ok {
					fetched = true
				}
				if tc.tamper != nil {
					return tc.tamper(m)
				}
				return m
			})
			if fetched != tc.wantFetch {
				t.Fatalf("fetched chunks: %v, want %v", fetched, tc.wantFetch)
			}
			if tc.reject {
				if len(errs[3]) == 0 || !errors.Is(errs[3][0], ErrInvalid) {
					t.Fatalf("laggard accepted the tampered catch-up (errors %v)", errs[3])
				}
				if !lag.sync.banned[0] {
					t.Fatal("lying server not banned")
				}
				if lag.Committed() != committed || lag.Ledger().Seq() != seq || lag.Ledger().HistRoot() != root {
					t.Fatalf("rejected catch-up changed the laggard: committed %d->%d, next seq %d->%d",
						committed, lag.Committed(), seq, lag.Ledger().Seq())
				}
				if got := inFlight(lag); !maps.Equal(got, window) {
					t.Fatalf("rejected catch-up changed the in-flight window: %v -> %v", window, got)
				}
				return
			}
			if len(errs[3]) != 0 {
				t.Fatalf("laggard errors: %v", errs[3])
			}
			c.assertAgreement(uint64(len(bases)), 0, 3)
			if lag.Syncing() {
				t.Fatal("laggard still syncing after catching up")
			}
		})
	}
}

// swapCert replaces a sync offer's certificate.
func swapCert(cert *CommitCert) func(Message) Message {
	return func(m Message) Message {
		av, ok := m.(*SyncAvail)
		if !ok {
			return m
		}
		cp := *av
		cp.Cert = cert
		return &cp
	}
}
