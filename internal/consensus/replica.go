package consensus

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
)

var (
	// ErrConfig reports an invalid replica configuration.
	ErrConfig = errors.New("consensus: config needs >= 4 peers, a matching key, and an app")
	// ErrNotPrimary reports a Propose call on a replica that is not the
	// primary of the current view, or not in a position to propose.
	ErrNotPrimary = errors.New("consensus: replica cannot propose now")
	// ErrInvalid reports a message that failed validation (bad signature,
	// wrong primary, malformed proof). Invalid messages never change state.
	ErrInvalid = errors.New("consensus: invalid message")
)

// DefaultWindow is the proposal window used when Config.Window is zero:
// the primary may have this many consecutive instances in flight before the
// oldest commits (paper §3, §6: pipelining consensus instances is what
// hides signing and verification latency between batches).
const DefaultWindow = 4

// Config parameterizes a Replica.
type Config struct {
	// ID is this replica's index; Peers[ID] must be Key's public half.
	ID ReplicaID
	// Key signs batch headers and protocol messages. One key per replica,
	// shared with its ledger, so blame evidence names the same identity the
	// ledger's signed headers do.
	Key *hashsig.PrivateKey
	// Peers holds every replica's public key, indexed by ReplicaID. The
	// configuration tolerates f = (len(Peers)-1)/3 faults.
	Peers []*hashsig.PublicKey
	// App executes transaction payloads (must be deterministic).
	App ledger.App
	// CheckpointEvery and Shards parameterize the underlying ledger.
	CheckpointEvery uint64
	Shards          uint32
	// Window is the proposal window W: how many consecutive instances may
	// be in flight at once. 0 means DefaultWindow. All replicas of one
	// configuration must agree on it (it bounds the prepared claims a
	// view-change may carry).
	Window int
	// Pool verifies protocol signatures; nil selects the process-wide
	// hashsig.DefaultPool.
	Pool *hashsig.VerifierPool
}

// slotKey identifies one proposal slot for equivocation detection.
type slotKey struct {
	view uint64
	seq  uint64
}

// instance is one in-flight consensus instance. A replica runs up to
// Window of them concurrently, at consecutive sequence numbers starting
// just above the committed boundary; instances are created in ledger order
// (execution is sequential) but their prepare/commit quorums may complete
// in any order — commits are applied in order by advanceCommits.
type instance struct {
	prop         *Proposal
	headerDigest hashsig.Digest // prop.Header.SigningDigest()
	propDigest   hashsig.Digest // prop.SigningDigest()
	entries      []ledger.Entry
	ownHeader    *ledger.BatchHeader
	nonce        hashsig.Nonce // own commit nonce
	// prepMsgs holds the valid prepares seen, by backup (never the
	// primary, whose endorsement and nonce commitment ride in prop).
	prepMsgs map[ReplicaID]*Prepare
	// opens holds revealed nonces, validated against commitments lazily.
	opens        map[ReplicaID]hashsig.Nonce
	preparedCert bool
	// own messages, kept for retransmission.
	ownPrePrepare *PrePrepare
	ownPrepare    *Prepare
	ownCommit     *Commit
}

// endorsers counts distinct replicas backing the proposal: the primary via
// its proposal signature plus one per valid prepare.
func (in *instance) endorsers() int { return 1 + len(in.prepMsgs) }

// claim returns the instance's prepared certificate: its pre-prepare plus
// the prepares backing it.
func (in *instance) claim() *PreparedProof {
	c := &PreparedProof{PP: PrePrepare{Prop: *in.prop, Entries: in.entries}}
	for _, id := range sortedKeys(in.prepMsgs) {
		c.Prepares = append(c.Prepares, *in.prepMsgs[id])
	}
	return c
}

// commitment returns the nonce commitment replica id announced for this
// instance, if known.
func (in *instance) commitment(id ReplicaID) (hashsig.Digest, bool) {
	if id == in.prop.Primary {
		return in.prop.NonceCommit, true
	}
	if p, ok := in.prepMsgs[id]; ok {
		return p.NonceCommit, true
	}
	return hashsig.Digest{}, false
}

// openedQuorum counts distinct replicas whose revealed nonce opens their
// announced commitment.
func (in *instance) openedQuorum() int {
	n := 0
	for id, nonce := range in.opens {
		if c, ok := in.commitment(id); ok && nonce.Opens(c) {
			n++
		}
	}
	return n
}

// Replica is one L-PBFT replica: a ledger plus the protocol state machine.
// It is single-threaded, like the replica loop it models: callers feed it
// one message (Handle) or one batch of messages (HandleAll) at a time and
// route the addressed envelopes it returns — Broadcast envelopes to every
// peer, unicast envelopes to exactly their Dest.
type Replica struct {
	cfg    Config
	n      int
	f      int
	quorum int // 2f+1
	window int
	led    *ledger.Ledger
	pool   *hashsig.VerifierPool

	view      uint64
	committed uint64 // highest committed batch seq (0 = none)
	// insts holds the in-flight window, keyed by sequence number. Keys are
	// always the contiguous range (committed, Ledger().Seq()): instances
	// are created in execution order and abandoned as a suffix, and all of
	// them belong to the current view (entering a view abandons the rest).
	insts map[uint64]*instance

	// lastCommit retains the proof for the latest committed batch, carried
	// in view-changes to certify CommittedSeq and in sync offers to anchor
	// a laggard's catch-up. A replica that falls behind never re-runs the
	// protocol for batches the cluster finished: it commits from such a
	// certificate or fetches the suffix it anchors (sync.go).
	lastCommit *CommitCert

	// view-change state
	inViewChange bool
	vcTarget     uint64
	ownVC        *ViewChange
	vcs          map[uint64]map[ReplicaID]*ViewChange
	lastNewView  *NewView
	// mustRepropose pins, per sequence number, the header digest the
	// current view's primary is obliged to re-propose (from the new-view
	// certificate's contiguous prepared chain).
	mustRepropose map[uint64]hashsig.Digest
	// pendingRepropose is the chain a new primary must re-propose but
	// cannot yet, because it is still catching up to the chain's start.
	pendingRepropose []*PrePrepare
	// claims holds the highest-view prepared certificate known per seq in
	// the window above the committed boundary — own instances' and entered
	// new-views' chains — kept through rollbacks until the seq commits, so
	// a withheld re-proposal cannot erase a prepared batch (PBFT's P set).
	claims map[uint64]*PreparedProof
	// proposeFloor is the highest certified committed seq seen in a
	// new-view certificate; fresh proposals stay above it.
	proposeFloor uint64

	// seen records the first valid proposal per (view, seq); a second one
	// with a different header digest is equivocation.
	seen     map[slotKey]*Proposal
	evidence []*Blame
	blamed   map[slotKey]bool

	// future buffers messages that cannot be processed yet (later seq,
	// later view, or instance not created). Bounded; oldest dropped first.
	future []Message

	// sigOK memoizes successful signature checks by memoKey (digest,
	// signature, and key bound together), so buffered messages are not
	// re-verified on every drain pass; bounded by two-generation
	// eviction. peerID holds each peer key's precomputed ID digest for
	// those memo lookups.
	sigOK  *sigMemo
	peerID map[*hashsig.PublicKey]hashsig.Digest

	// sync is the catch-up state machine (sync.go): how this replica
	// recovers any gap between its committed boundary and the cluster's.
	sync syncState

	// gen counts state transitions that can make buffered messages
	// processable; Handle drains the future buffer when it advances.
	gen uint64
}

// maxFuture bounds the out-of-order buffer.
const maxFuture = 1 << 14

// New returns a replica with a fresh ledger.
func New(cfg Config) (*Replica, error) {
	n := len(cfg.Peers)
	if n < 4 || cfg.Key == nil || int(cfg.ID) >= n {
		return nil, ErrConfig
	}
	if cfg.Peers[cfg.ID] == nil || !cfg.Peers[cfg.ID].Equal(cfg.Key.Public()) {
		return nil, fmt.Errorf("%w: Peers[%d] is not Key's public half", ErrConfig, cfg.ID)
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("%w: negative window %d", ErrConfig, cfg.Window)
	}
	if cfg.Window > maxPreparedClaims {
		// A view-change carries one prepared claim per in-window instance;
		// peers' decoders cap the list at maxPreparedClaims, so a larger
		// window could emit view-changes no peer accepts — a liveness loss
		// baked in at configuration time.
		return nil, fmt.Errorf("%w: window %d exceeds the decodable claim bound %d", ErrConfig, cfg.Window, maxPreparedClaims)
	}
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	led, err := ledger.New(ledger.Config{
		Key:             cfg.Key,
		App:             cfg.App,
		CheckpointEvery: cfg.CheckpointEvery,
		Shards:          cfg.Shards,
	})
	if err != nil {
		return nil, err
	}
	f := (n - 1) / 3
	pool := cfg.Pool
	if pool == nil {
		pool = hashsig.DefaultPool()
	}
	peerID := make(map[*hashsig.PublicKey]hashsig.Digest, n)
	for _, pub := range cfg.Peers {
		if pub != nil {
			peerID[pub] = pub.ID()
		}
	}
	return &Replica{
		cfg:           cfg,
		n:             n,
		f:             f,
		quorum:        2*f + 1,
		window:        cfg.Window,
		led:           led,
		pool:          pool,
		insts:         make(map[uint64]*instance),
		vcs:           make(map[uint64]map[ReplicaID]*ViewChange),
		mustRepropose: make(map[uint64]hashsig.Digest),
		claims:        make(map[uint64]*PreparedProof),
		seen:          make(map[slotKey]*Proposal),
		blamed:        make(map[slotKey]bool),
		sigOK:         newSigMemo(),
		peerID:        peerID,
	}, nil
}

// ID returns this replica's index.
func (r *Replica) ID() ReplicaID { return r.cfg.ID }

// View returns the current view number.
func (r *Replica) View() uint64 { return r.view }

// Committed returns the highest committed batch sequence number (0 before
// the first commit).
func (r *Replica) Committed() uint64 { return r.committed }

// Window returns the configured proposal window W.
func (r *Replica) Window() int { return r.window }

// InFlight returns the number of speculative instances currently open.
func (r *Replica) InFlight() int { return len(r.insts) }

// NextProposalSeq returns the sequence number the next Propose call would
// use: the ledger's next batch, one past the speculative chain.
func (r *Replica) NextProposalSeq() uint64 { return r.led.Seq() }

// Ledger exposes the replica's ledger (read-only use by callers).
func (r *Replica) Ledger() *ledger.Ledger { return r.led }

// Evidence returns the blame objects collected so far, as a fresh slice.
func (r *Replica) Evidence() []*Blame {
	return append([]*Blame(nil), r.evidence...)
}

// DebugState renders the replica's protocol coordinates for harness
// failure reports.
func (r *Replica) DebugState() string {
	win := "idle"
	if len(r.insts) > 0 {
		win = ""
		for _, seq := range sortedKeys(r.insts) {
			in := r.insts[seq]
			win += fmt.Sprintf("inst{view %d seq %d prepared %v endorsers %d opens %d} ",
				in.prop.View, seq, in.preparedCert, in.endorsers(), len(in.opens))
		}
	}
	return fmt.Sprintf("replica %d: view %d committed %d window %d vc %v(target %d) floor %d obligations %d pending %d claims %d future %d sync %d(ahead %d) retained %d %s",
		r.cfg.ID, r.view, r.committed, r.window, r.inViewChange, r.vcTarget, r.proposeFloor,
		len(r.mustRepropose), len(r.pendingRepropose), len(r.claims), len(r.future), r.sync.phase, r.sync.ahead,
		r.led.RetainedBatches(), win)
}

// sortedKeys returns m's keys in ascending order. Every place the replica
// iterates a protocol map — window instances, certificate assembly — must
// do so deterministically, or identical replicas would emit
// differently-ordered (and differently-signed-over) messages.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// primaryOf returns the primary of view v.
func (r *Replica) primaryOf(v uint64) ReplicaID { return ReplicaID(v % uint64(r.n)) }

// IsPrimary reports whether this replica leads the current view.
func (r *Replica) IsPrimary() bool { return r.primaryOf(r.view) == r.cfg.ID }

// CanPropose reports whether the replica could start a new instance now:
// no view change pending, no re-proposal obligation, caught up to every
// certified commit it knows about, and a free slot in the proposal window.
func (r *Replica) CanPropose() bool {
	return !r.inViewChange && len(r.mustRepropose) == 0 &&
		len(r.pendingRepropose) == 0 && r.committed >= r.proposeFloor &&
		len(r.insts) < r.window
}

// Idle reports whether the replica has nothing in flight at all: no open
// instances, and CanPropose holds. With a window above one a pipelining
// primary is rarely Idle — use CanPropose to pace proposals.
func (r *Replica) Idle() bool {
	return len(r.insts) == 0 && r.CanPropose()
}

// Propose executes reqs as the next batch and returns the pre-prepare to
// broadcast plus the client receipts. Only the primary may propose, and
// only while the proposal window has room (CanPropose).
func (r *Replica) Propose(reqs []ledger.Request) (*PrePrepare, []ledger.Receipt, error) {
	if !r.IsPrimary() || !r.CanPropose() {
		return nil, nil, ErrNotPrimary
	}
	batch, receipts, err := r.led.ExecuteBatch(reqs)
	if err != nil {
		return nil, nil, err
	}
	pp := r.proposeBatch(batch)
	return pp, receipts, nil
}

// proposeBatch wraps an already-executed batch (ExecuteBatch or ApplyBatch
// output adopted into the ledger) into a proposal and opens the instance.
func (r *Replica) proposeBatch(batch *ledger.Batch) *PrePrepare {
	nonce := hashsig.NewNonce()
	prop := &Proposal{
		View:        r.view,
		Primary:     r.cfg.ID,
		Header:      batch.Header,
		NonceCommit: nonce.Commit(),
	}
	prop.Sig = r.cfg.Key.MustSign(prop.SigningDigest())
	pp := &PrePrepare{Prop: *prop, Entries: batch.Entries}
	r.seen[slotKey{prop.View, prop.Seq()}] = prop
	in := &instance{
		prop:          prop,
		headerDigest:  prop.Header.SigningDigest(),
		propDigest:    prop.SigningDigest(),
		entries:       batch.Entries,
		ownHeader:     &batch.Header,
		nonce:         nonce,
		prepMsgs:      make(map[ReplicaID]*Prepare),
		opens:         make(map[ReplicaID]hashsig.Nonce),
		ownPrePrepare: pp,
	}
	r.insts[prop.Seq()] = in
	r.gen++
	return pp
}

// Handle processes one message and returns the addressed envelopes to send
// in response. Invalid messages return ErrInvalid-wrapped errors and change
// no state; stale or not-yet-processable messages return nil.
func (r *Replica) Handle(m Message) ([]Outbound, error) {
	var out []Outbound
	before := r.gen
	err := r.handle(m, &out)
	if r.gen != before {
		// Only a state transition can make buffered messages processable.
		r.drainFuture(&out)
	}
	return out, err
}

// drainFuture re-feeds buffered messages for as long as doing so advances
// the replica. Messages that are still premature re-buffer themselves.
func (r *Replica) drainFuture(out *[]Outbound) {
	for {
		if len(r.future) == 0 {
			return
		}
		before := r.gen
		pending := r.future
		r.future = nil
		for _, m := range pending {
			// Errors from buffered messages were either already reported at
			// receipt time or are stale-view artifacts; drop them.
			_ = r.handle(m, out)
		}
		if r.gen == before {
			return
		}
	}
}

func (r *Replica) buffer(m Message) {
	// Ack-and-discard: a delayed retransmit (or a later-view copy) of a
	// message for a batch a whole window below the committed boundary can
	// never be processed — the replica committed past it and its peers
	// pruned it. Buffering it would leak it until maxFuture churn under
	// long adversarial schedules.
	if seq, ok := messageSeq(m); ok && seq > 0 && seq+uint64(r.window) <= r.committed {
		return
	}
	if len(r.future) >= maxFuture {
		r.future = r.future[1:]
	}
	r.future = append(r.future, m)
}

func (r *Replica) handle(m Message, out *[]Outbound) error {
	switch msg := m.(type) {
	case *PrePrepare:
		return r.handlePrePrepare(msg, out)
	case *Prepare:
		return r.handlePrepare(msg, out)
	case *Commit:
		return r.handleCommit(msg, out)
	case *ViewChange:
		return r.handleViewChange(msg, out)
	case *NewView:
		return r.handleNewView(msg, out)
	case *SyncRequest:
		return r.handleSyncRequest(msg, out)
	case *SyncAvail:
		return r.handleSyncAvail(msg, out)
	case *SyncChunkRequest:
		return r.handleSyncChunkRequest(msg, out)
	case *SyncChunk:
		return r.handleSyncChunk(msg, out)
	default:
		return fmt.Errorf("%w: unknown message %T", ErrInvalid, m)
	}
}

// checkEquivocation records prop as the canonical proposal for its slot, or
// — if a different proposal already holds the slot — captures blame against
// the primary and reports the conflict.
func (r *Replica) checkEquivocation(prop *Proposal) bool {
	key := slotKey{prop.View, prop.Seq()}
	if key.seq > r.committed+uint64(r.window) {
		// Outside the proposal window: the message gets buffered and
		// re-checked once in range. Recording it now would let a Byzantine
		// peer grow the map without bound by signing far-future slots.
		return false
	}
	prev, ok := r.seen[key]
	if !ok {
		r.seen[key] = prop
		return false
	}
	if prev.Header.SigningDigest() == prop.Header.SigningDigest() {
		return false
	}
	if !r.blamed[key] {
		if bl := blameFrom(prev, prop, r.cfg.Peers[prop.Primary]); bl != nil {
			r.blamed[key] = true
			r.evidence = append(r.evidence, bl)
		}
	}
	return true
}

// proposalStructure checks a proposal's identity claims: right primary for
// its view, indices in range.
func (r *Replica) proposalStructure(prop *Proposal) error {
	if int(prop.Primary) >= r.n || prop.Primary != r.primaryOf(prop.View) {
		return fmt.Errorf("%w: proposal from %d for view %d", ErrInvalid, prop.Primary, prop.View)
	}
	return nil
}

// validateProposal checks a proposal's provenance: right primary for its
// view, valid proposal signature, valid header signature by the same key.
func (r *Replica) validateProposal(prop *Proposal) error {
	if err := r.proposalStructure(prop); err != nil {
		return err
	}
	if !r.verifyTasks(r.proposalTasks(prop, nil)) {
		return fmt.Errorf("%w: bad proposal or header signature", ErrInvalid)
	}
	return nil
}

func (r *Replica) handlePrePrepare(pp *PrePrepare, out *[]Outbound) error {
	prop := &pp.Prop
	if err := r.validateProposal(prop); err != nil {
		return err
	}
	seq := prop.Seq()
	if seq <= r.committed {
		return nil // stale
	}
	if prop.View > r.view {
		r.buffer(pp)
		return nil
	}
	if seq > uint64(r.window) {
		// A validly signed proposal at seq implies its primary committed at
		// least seq-window (any replica can sign for a future view it
		// leads, so those are no evidence). Recorded before the branches
		// below drop or park it: a replica alone in a view change must
		// still notice its peers moving on (sync.go fetches what it missed).
		r.noteAhead(seq - uint64(r.window))
	}
	if r.checkEquivocation(prop) {
		return fmt.Errorf("%w: equivocating proposal at view %d seq %d", ErrInvalid, prop.View, seq)
	}
	if prop.View < r.view || r.inViewChange {
		// An older view's proposal, or the current view's while leaving it:
		// neither can gather a quorum any more. Whatever of it prepared
		// returns as the next primary's re-proposal, and whatever committed
		// is learned from certificates.
		return nil
	}
	if _, open := r.insts[seq]; open {
		// Duplicate delivery, or a conflicting same-view proposal (blame
		// recorded above). Stragglers pull resends via Retransmit
		// (re-emitting here would echo-amplify every broadcast).
		return nil
	}
	if seq > r.committed+uint64(r.window) || seq != r.led.Seq() {
		// Beyond the window, or ahead of the execution chain (an earlier
		// pre-prepare is still missing): wait for the gap to fill.
		r.buffer(pp)
		return nil
	}
	if want, pinned := r.mustRepropose[seq]; pinned && prop.Header.SigningDigest() != want {
		return fmt.Errorf("%w: view %d primary must re-propose the prepared batch at seq %d", ErrInvalid, r.view, seq)
	}

	ownHeader, err := r.led.ApplyBatch(pp.Batch())
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	nonce := hashsig.NewNonce()
	in := &instance{
		prop:         prop,
		headerDigest: prop.Header.SigningDigest(),
		propDigest:   prop.SigningDigest(),
		entries:      pp.Entries,
		ownHeader:    ownHeader, // our own signature over the same commitments
		nonce:        nonce,
		prepMsgs:     make(map[ReplicaID]*Prepare),
		opens:        make(map[ReplicaID]hashsig.Nonce),
	}
	r.insts[seq] = in
	r.gen++
	delete(r.mustRepropose, seq)
	prep := &Prepare{Replica: r.cfg.ID, Prop: *prop, NonceCommit: nonce.Commit()}
	prep.Sig = r.cfg.Key.MustSign(prep.SigningDigest())
	in.ownPrepare = prep
	in.prepMsgs[r.cfg.ID] = prep
	*out = append(*out, toAll(prep))
	r.checkPrepared(in, out)
	r.advanceCommits(out)
	return nil
}

// abandonFrom discards the in-flight instance at seq and every later one,
// rolling back the speculative execution they put in the ledger (Lemma 1).
// The prepared certificates of discarded instances stay claimed.
func (r *Replica) abandonFrom(seq uint64) {
	dropped := false
	for _, s := range sortedKeys(r.insts) {
		if s < seq {
			continue
		}
		if in := r.insts[s]; in.preparedCert {
			r.keepClaim(in.claim())
		}
		delete(r.insts, s)
		dropped = true
	}
	if !dropped {
		return
	}
	if r.led.Seq() > seq {
		// The mark exists: every executed batch leaves one, and marks above
		// the committed boundary — where seq always lies — are never pruned.
		if err := r.led.RollbackTo(seq); err != nil {
			panic(err)
		}
	}
	r.gen++
}

func (r *Replica) handlePrepare(p *Prepare, out *[]Outbound) error {
	prop := &p.Prop
	seq := prop.Seq()
	if seq <= r.committed {
		// Stale: nothing at or below the committed boundary can use it, so
		// it is dropped before any signature work. No evidence is lost —
		// stale prepares never fed the equivocation check.
		return nil
	}
	if err := r.proposalStructure(prop); err != nil {
		return err
	}
	if int(p.Replica) >= r.n || p.Replica == prop.Primary {
		return fmt.Errorf("%w: prepare from %d", ErrInvalid, p.Replica)
	}
	// All three signature checks — the carried proposal's pair and the
	// backup's own — go through the memo and pool in one pass.
	if !r.verifyTasks(r.prepareTasks(p, nil)) {
		return fmt.Errorf("%w: bad signature in prepare from %d", ErrInvalid, p.Replica)
	}
	if prop.View > r.view {
		r.buffer(p)
		return nil
	}
	r.checkEquivocation(prop)
	if prop.View < r.view || r.inViewChange {
		return nil
	}
	in := r.insts[seq]
	if in == nil || in.propDigest != prop.SigningDigest() {
		r.buffer(p)
		return nil
	}
	if _, dup := in.prepMsgs[p.Replica]; !dup {
		in.prepMsgs[p.Replica] = p
	}
	r.checkPrepared(in, out)
	r.advanceCommits(out)
	return nil
}

func (r *Replica) handleCommit(c *Commit, out *[]Outbound) error {
	if int(c.Replica) >= r.n {
		return fmt.Errorf("%w: commit from %d", ErrInvalid, c.Replica)
	}
	if c.Seq <= r.committed {
		return nil
	}
	if c.View > r.view {
		r.buffer(c)
		return nil
	}
	if c.View < r.view || r.inViewChange {
		return nil
	}
	in := r.insts[c.Seq]
	if in == nil || in.prop.View != c.View || in.headerDigest != c.HeaderDigest {
		r.buffer(c)
		return nil
	}
	// The nonce authenticates itself: it must open the commitment c.Replica
	// announced. Commits are unsigned, so the Replica field is spoofable —
	// never let a garbage nonce squat on an honest replica's slot: when the
	// commitment is known, only an opening nonce is recorded, and a stored
	// non-opening nonce is replaced by one that opens (genuine commits are
	// retransmitted, so a spoof that raced in first cannot block quorum).
	if cm, known := in.commitment(c.Replica); known {
		if c.Nonce.Opens(cm) {
			in.opens[c.Replica] = c.Nonce
		}
	} else if _, dup := in.opens[c.Replica]; !dup {
		// Commitment not yet seen (prepare still in flight): hold the
		// candidate; openedQuorum validates it once the commitment lands.
		in.opens[c.Replica] = c.Nonce
	}
	r.advanceCommits(out)
	return nil
}

// checkPrepared fires once 2f+1 distinct replicas back the instance's
// proposal: the replica reveals its nonce in an unsigned commit message
// (Lemma 3).
func (r *Replica) checkPrepared(in *instance, out *[]Outbound) {
	if in.preparedCert || in.endorsers() < r.quorum {
		return
	}
	in.preparedCert = true
	cm := &Commit{
		View:         in.prop.View,
		Replica:      r.cfg.ID,
		Seq:          in.prop.Seq(),
		HeaderDigest: in.headerDigest,
		Nonce:        in.nonce,
	}
	in.ownCommit = cm
	in.opens[r.cfg.ID] = in.nonce
	*out = append(*out, toAll(cm))
}

// advanceCommits applies every completion the window allows, strictly in
// order: the instance just above the committed boundary commits once 2f+1
// distinct replicas opened their commitments, which may unblock the next.
// Quorums that completed out of order simply wait here, fully buffered,
// until their predecessors commit.
func (r *Replica) advanceCommits(out *[]Outbound) {
	for {
		in := r.insts[r.committed+1]
		if in == nil || in.openedQuorum() < r.quorum {
			break
		}
		r.commitThrough(r.buildCommitCert(in))
	}
	// A parked re-proposal chain resumes the moment the primary reaches its
	// start (unless it is already leaving the view).
	if r.inViewChange {
		return
	}
	for len(r.pendingRepropose) > 0 && r.pendingRepropose[0].Prop.Seq() <= r.committed {
		r.pendingRepropose = r.pendingRepropose[1:]
	}
	if len(r.pendingRepropose) > 0 && r.pendingRepropose[0].Prop.Seq() == r.committed+1 {
		chain := r.pendingRepropose
		r.pendingRepropose = nil
		r.reproposeChain(chain, out)
	}
}

// commitFromCert is catch-up from a verified commit certificate (one carried
// in a view-change, a new-view, or a sync offer). When the local ledger holds
// the certified header at the certificate's sequence number, that header's
// ¯M chains every earlier entry, so the whole local prefix up to it is
// exactly what committed: it commits without re-running the protocol for
// any of those batches. It reports whether the certificate was usable.
func (r *Replica) commitFromCert(cert *CommitCert, out *[]Outbound) bool {
	if cert == nil || cert.Seq() <= r.committed {
		return false
	}
	b := r.led.BatchAt(cert.Seq())
	if b == nil || b.Header.SigningDigest() != cert.Prop.Header.SigningDigest() {
		return false
	}
	r.commitThrough(cert)
	r.advanceCommits(out)
	return true
}

// commitThrough moves the committed boundary up to cert's sequence number.
// The caller guarantees the local ledger holds the certified header there,
// so every local batch up to it is final.
func (r *Replica) commitThrough(cert *CommitCert) {
	seq := cert.Seq()
	for s := r.committed + 1; s <= seq; s++ {
		delete(r.insts, s)
		delete(r.mustRepropose, s)
		delete(r.claims, s)
	}
	r.committed = seq
	r.lastCommit = cert
	r.led.PruneMarks(seq)
	// Blame slots at or below the committed boundary stay recorded (the
	// evidence keeps its value), but the seen map is pruned to bound it.
	for k := range r.seen {
		if k.seq < seq {
			delete(r.seen, k)
		}
	}
	// Drop batches below both the latest committed checkpoint and the
	// retained window, bounding ledger memory (sync.go serves anything
	// older via chunked state transfer).
	r.maybePrune()
	r.gen++
}

// buildCommitCert assembles the proof that the instance committed.
func (r *Replica) buildCommitCert(in *instance) *CommitCert {
	cert := &CommitCert{Prop: *in.prop}
	for _, id := range sortedKeys(in.prepMsgs) {
		cert.Prepares = append(cert.Prepares, *in.prepMsgs[id])
	}
	for _, id := range sortedKeys(in.opens) {
		cert.Opens = append(cert.Opens, NonceOpen{Replica: id, Nonce: in.opens[id]})
	}
	return cert
}

// OnTimeout abandons the current view and broadcasts a view change for the
// next one. Callers invoke it when progress has stalled; repeated calls
// escalate the target view.
func (r *Replica) OnTimeout() []Outbound {
	target := r.view + 1
	if r.inViewChange && r.vcTarget >= target {
		target = r.vcTarget + 1
	}
	return r.startViewChange(target)
}

// keepClaim records a prepared certificate unless its seq lies outside the
// window above the committed boundary or an equal or later view's is held.
func (r *Replica) keepClaim(c *PreparedProof) {
	seq := c.PP.Prop.Seq()
	if seq <= r.committed || seq > r.committed+uint64(r.window) {
		return
	}
	if cur, ok := r.claims[seq]; ok && cur.PP.Prop.View >= c.PP.Prop.View {
		return
	}
	r.claims[seq] = c
}

// startViewChange emits this replica's view-change for the target view,
// carrying every prepared claim it holds for the window above its committed
// boundary: its in-window instances that reached their prepare quorum plus
// the claims kept across earlier views (quorums can form out of order, so
// the claims may be non-contiguous).
func (r *Replica) startViewChange(target uint64) []Outbound {
	r.inViewChange = true
	r.vcTarget = target
	r.gen++
	vc := &ViewChange{
		NewView:      target,
		Replica:      r.cfg.ID,
		CommittedSeq: r.committed,
		CommitProof:  r.lastCommit,
	}
	for _, seq := range sortedKeys(r.insts) {
		if in := r.insts[seq]; in.preparedCert {
			r.keepClaim(in.claim())
		}
	}
	for _, seq := range sortedKeys(r.claims) {
		vc.Prepared = append(vc.Prepared, *r.claims[seq])
	}
	vc.Sig = r.cfg.Key.MustSign(vc.SigningDigest())
	r.ownVC = vc
	r.recordViewChange(vc)
	out := []Outbound{toAll(vc)}
	r.maybeEmitNewView(target, &out)
	return out
}

// viewChangeStructure checks everything about a view-change except
// signature validity, appending the owed signature checks to tasks.
func (r *Replica) viewChangeStructure(vc *ViewChange, tasks *[]hashsig.VerifyTask) error {
	if int(vc.Replica) >= r.n {
		return fmt.Errorf("%w: view-change from %d", ErrInvalid, vc.Replica)
	}
	*tasks = append(*tasks, hashsig.VerifyTask{
		Key: r.cfg.Peers[vc.Replica], Digest: vc.SigningDigest(), Sig: vc.Sig})
	if vc.CommittedSeq > 0 {
		if vc.CommitProof == nil || vc.CommitProof.Seq() != vc.CommittedSeq {
			return fmt.Errorf("%w: uncertified committed seq %d", ErrInvalid, vc.CommittedSeq)
		}
		ts, ok := vc.CommitProof.structure(r.cfg.Peers, r.quorum)
		if !ok {
			return fmt.Errorf("%w: uncertified committed seq %d", ErrInvalid, vc.CommittedSeq)
		}
		*tasks = append(*tasks, ts...)
	}
	lastSeq := vc.CommittedSeq
	for i := range vc.Prepared {
		claim := &vc.Prepared[i]
		prop := &claim.PP.Prop
		seq := prop.Seq()
		if seq <= lastSeq || seq > vc.CommittedSeq+uint64(r.window) {
			return fmt.Errorf("%w: prepared batch at seq %d out of place", ErrInvalid, seq)
		}
		lastSeq = seq
		if prop.View >= vc.NewView {
			return fmt.Errorf("%w: prepared batch from view %d >= target %d", ErrInvalid, prop.View, vc.NewView)
		}
		if err := r.proposalStructure(prop); err != nil {
			return err
		}
		*tasks = r.proposalTasks(prop, *tasks)
		// The entries ride outside every signature (the view-change binds
		// only the proposal digest), so check they reproduce the signed ¯G:
		// a relayed certificate with tampered entries must not reach the
		// new primary, which would fail to re-execute it and stall the view.
		if err := ledger.CheckBatchShape(claim.PP.Batch()); err != nil {
			return fmt.Errorf("%w: prepared batch entries do not match header: %v", ErrInvalid, err)
		}
		endorsers := map[ReplicaID]bool{prop.Primary: true}
		d := prop.SigningDigest()
		for j := range claim.Prepares {
			p := &claim.Prepares[j]
			if int(p.Replica) >= r.n || p.Replica == prop.Primary {
				continue
			}
			if p.Prop.SigningDigest() != d {
				return fmt.Errorf("%w: bad prepare proof", ErrInvalid)
			}
			*tasks = append(*tasks, hashsig.VerifyTask{
				Key: r.cfg.Peers[p.Replica], Digest: p.SigningDigest(), Sig: p.Sig})
			endorsers[p.Replica] = true
		}
		if len(endorsers) < r.quorum {
			return fmt.Errorf("%w: prepared claim backed by %d < %d replicas", ErrInvalid, len(endorsers), r.quorum)
		}
	}
	return nil
}

// validateViewChange checks a view-change's signature and all its proofs,
// verifying the collected signature set in one pooled pass.
func (r *Replica) validateViewChange(vc *ViewChange) error {
	var tasks []hashsig.VerifyTask
	if err := r.viewChangeStructure(vc, &tasks); err != nil {
		return err
	}
	if !r.verifyTasks(tasks) {
		return fmt.Errorf("%w: bad signature in view-change from %d", ErrInvalid, vc.Replica)
	}
	return nil
}

func (r *Replica) recordViewChange(vc *ViewChange) {
	byID, ok := r.vcs[vc.NewView]
	if !ok {
		byID = make(map[ReplicaID]*ViewChange)
		r.vcs[vc.NewView] = byID
	}
	if _, dup := byID[vc.Replica]; !dup {
		byID[vc.Replica] = vc
	}
}

// maxViewAhead bounds how far above the local view-change target incoming
// view-changes are retained; honest targets escalate one view per timeout,
// so anything far beyond is a Byzantine attempt to grow the vcs map.
const maxViewAhead = 64

func (r *Replica) handleViewChange(vc *ViewChange, out *[]Outbound) error {
	if vc.NewView <= r.view {
		return nil
	}
	if vc.NewView > max(r.view, r.vcTarget)+maxViewAhead {
		return fmt.Errorf("%w: view-change for view %d is too far ahead", ErrInvalid, vc.NewView)
	}
	if err := r.validateViewChange(vc); err != nil {
		return err
	}
	// The committed claim was just certified against its commit proof:
	// commit from it if it matches local speculation, else it is evidence
	// for sync.go.
	r.commitFromCert(vc.CommitProof, out)
	r.noteAhead(vc.CommittedSeq)
	for i := range vc.Prepared {
		r.checkEquivocation(&vc.Prepared[i].PP.Prop)
	}
	r.recordViewChange(vc)
	// Join rule: f+1 distinct replicas already gave up on our view — at
	// least one is honest, so follow rather than stay behind.
	if !r.inViewChange || r.vcTarget < vc.NewView {
		if len(r.vcs[vc.NewView]) >= r.f+1 {
			*out = append(*out, r.startViewChange(vc.NewView)...)
			return nil
		}
	}
	r.maybeEmitNewView(vc.NewView, out)
	return nil
}

// maybeEmitNewView builds and broadcasts the new-view certificate once this
// replica is the target view's primary and holds a quorum of view-changes.
func (r *Replica) maybeEmitNewView(v uint64, out *[]Outbound) {
	if r.primaryOf(v) != r.cfg.ID || v <= r.view {
		return
	}
	byID := r.vcs[v]
	if len(byID) < r.quorum {
		return
	}
	nv := &NewView{View: v, Replica: r.cfg.ID}
	for _, id := range sortedKeys(byID) {
		nv.VCs = append(nv.VCs, *byID[id])
	}
	nv.Sig = r.cfg.Key.MustSign(nv.SigningDigest())
	r.lastNewView = nv
	*out = append(*out, toAll(nv))
	r.enterView(nv, out)
}

func (r *Replica) handleNewView(nv *NewView, out *[]Outbound) error {
	if nv.View <= r.view {
		return nil
	}
	if int(nv.Replica) >= r.n || nv.Replica != r.primaryOf(nv.View) {
		return fmt.Errorf("%w: new-view from %d", ErrInvalid, nv.Replica)
	}
	tasks := []hashsig.VerifyTask{{
		Key: r.cfg.Peers[nv.Replica], Digest: nv.SigningDigest(), Sig: nv.Sig}}
	seen := map[ReplicaID]bool{}
	for i := range nv.VCs {
		vc := &nv.VCs[i]
		if vc.NewView != nv.View {
			return fmt.Errorf("%w: certificate mixes views", ErrInvalid)
		}
		if err := r.viewChangeStructure(vc, &tasks); err != nil {
			return err
		}
		seen[vc.Replica] = true
	}
	if len(seen) < r.quorum {
		return fmt.Errorf("%w: new-view backed by %d < %d replicas", ErrInvalid, len(seen), r.quorum)
	}
	// One pooled pass over the whole certificate: the new-view signature,
	// every view-change signature, and every proof inside them.
	if !r.verifyTasks(tasks) {
		return fmt.Errorf("%w: bad signature in new-view certificate", ErrInvalid)
	}
	r.enterView(nv, out)
	return nil
}

// enterView moves the replica into nv.View. The certificate determines the
// commit high-water mark and the contiguous chain of prepared batches the
// new primary is bound to re-propose, starting just above that mark: per
// sequence number the claim from the highest view wins (a later view's
// certificate supersedes earlier ones, as in PBFT), and the chain stops at
// the first uncertified gap — commits are in order, so nothing beyond a
// gap can have committed anywhere. The certificate's commit proofs commit
// whatever local speculation they match; the remaining speculation is
// rolled back (Lemma 1), since old-view instances can no longer gather
// quorums and the prepared ones return as re-proposals (their claims, and
// the chain's, are kept). A replica left below the high-water mark catches
// up through sync.go.
func (r *Replica) enterView(nv *NewView, out *[]Outbound) {
	v := nv.View
	maxCommitted := uint64(0)
	for i := range nv.VCs {
		if vc := &nv.VCs[i]; vc.CommittedSeq > maxCommitted {
			maxCommitted = vc.CommittedSeq
		}
	}
	r.noteAhead(maxCommitted)
	best := make(map[uint64]*PreparedProof)
	for i := range nv.VCs {
		for j := range nv.VCs[i].Prepared {
			claim := &nv.VCs[i].Prepared[j]
			seq := claim.PP.Prop.Seq()
			if seq <= maxCommitted {
				continue
			}
			if cur, ok := best[seq]; !ok || claim.PP.Prop.View > cur.PP.Prop.View {
				best[seq] = claim
			}
		}
	}
	var chain []*PrePrepare
	for seq := maxCommitted + 1; ; seq++ {
		claim, ok := best[seq]
		if !ok {
			break
		}
		chain = append(chain, &claim.PP)
	}

	r.view = v
	r.inViewChange = false
	r.vcTarget = v
	r.ownVC = nil
	r.gen++
	for tv := range r.vcs {
		if tv <= v {
			delete(r.vcs, tv)
		}
	}
	r.mustRepropose = make(map[uint64]hashsig.Digest)
	r.pendingRepropose = nil
	if maxCommitted > r.proposeFloor {
		r.proposeFloor = maxCommitted
	}
	for i := range nv.VCs {
		r.commitFromCert(nv.VCs[i].CommitProof, out)
	}
	r.abandonFrom(r.committed + 1)

	for _, pp := range chain {
		if seq := pp.Prop.Seq(); seq > r.committed {
			r.mustRepropose[seq] = pp.Prop.Header.SigningDigest()
			r.keepClaim(best[seq])
		}
	}
	if r.primaryOf(v) == r.cfg.ID {
		r.reproposeChain(chain, out)
	}
}

// reproposeChain is the new primary's obligation: re-execute and re-propose
// the certificate's prepared chain, in order, byte-identically
// (deterministic re-execution reproduces every header commitment). If the
// primary is still behind the chain's start it parks the chain and resumes
// as soon as it catches up.
func (r *Replica) reproposeChain(chain []*PrePrepare, out *[]Outbound) {
	for len(chain) > 0 && chain[0].Prop.Seq() <= r.committed {
		chain = chain[1:] // already committed here
	}
	if len(chain) == 0 {
		return
	}
	if first := chain[0].Prop.Seq(); first > r.committed+1 {
		r.pendingRepropose = chain
		return
	}
	for _, pp := range chain {
		batch := pp.Batch()
		ownHeader, err := r.led.ApplyBatch(batch)
		if err != nil {
			// A certified prepared batch re-executes cleanly by
			// construction; if the application is nondeterministic nothing
			// further can be proposed safely.
			return
		}
		delete(r.mustRepropose, pp.Prop.Seq())
		*out = append(*out, toAll(r.proposeBatch(&ledger.Batch{Header: *ownHeader, Entries: batch.Entries})))
	}
}

// Retransmit returns this replica's current outbound state — the messages a
// peer would need if earlier deliveries were lost: its own messages for the
// in-flight instances, plus the view-change it is waiting on or the new-view
// certificate it issued for the current view. Harness and transport call it
// to model timeout-driven resends. Nothing committed is resent: a peer that
// missed a finished batch catches up from its commit certificate (sync.go).
func (r *Replica) Retransmit() []Outbound {
	var msgs []Message
	if r.inViewChange {
		if r.ownVC != nil {
			msgs = append(msgs, r.ownVC)
		}
	} else {
		if r.lastNewView != nil && r.lastNewView.View == r.view {
			msgs = append(msgs, r.lastNewView)
		}
		for _, seq := range sortedKeys(r.insts) {
			in := r.insts[seq]
			if in.ownPrePrepare != nil {
				msgs = append(msgs, in.ownPrePrepare)
			}
			if in.ownPrepare != nil {
				msgs = append(msgs, in.ownPrepare)
			}
			if in.ownCommit != nil {
				msgs = append(msgs, in.ownCommit)
			}
		}
	}
	var out []Outbound
	broadcastAll(&out, msgs)
	return out
}
