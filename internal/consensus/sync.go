package consensus

import (
	"bytes"
	"fmt"
	"maps"

	"iaccf/internal/hashsig"
	"iaccf/internal/kv"
	"iaccf/internal/ledger"
	"iaccf/internal/merkle"
	"iaccf/internal/wire"
)

// Certificate-anchored catch-up (paper §3.4, §6). A replica whose
// committed boundary falls behind the cluster's never re-runs the protocol
// for batches the cluster already finished; commit certificates are
// transferable proof, so it catches up from them by one of two rules:
//
//  1. Commit from a matching certificate. A verified certificate — carried
//     in a view-change, a new-view, or a sync offer — whose header equals
//     the local ledger's header at its sequence number proves the whole
//     local prefix up to it (the header's ¯M chains every earlier entry),
//     so the replica commits that prefix directly (commitFromCert).
//  2. Otherwise fetch. On credible evidence of any gap the replica
//     discovers who can serve it (SyncRequest/SyncAvail) and fetches chunks
//     (SyncChunkRequest/SyncChunk) of one offer: the committed batch suffix
//     above its own committed boundary while the server still retains it
//     (a suffix-only offer), or else the server's latest committed
//     checkpoint as per-shard state chunks plus the suffix above it.
//
// Trust chain — one certificate anchors the whole transfer:
//
//   - The SyncAvail's commit certificate proves its batch header committed.
//   - Suffix-only: the suffix is replayed onto the replica's own committed
//     ledger (ledger.ApplyBatch checks results, ¯G, ¯M, d_C per batch), and
//     the final batch's header must reproduce the certified header's
//     signing digest.
//   - Checkpoint: the header signs d_C, so the announced shard digest
//     vector must combine to the header's d_C, and each state chunk must
//     hash to its slot in that vector (the canonical per-shard
//     serialization is exactly the preimage d_C is built from). The
//     frontier and the batch suffix are verified transitively: a candidate
//     ledger is restored from the checkpoint, the suffix is replayed onto
//     it, and the final header must reproduce the certified one. The
//     history roots chain every entry, so a lying frontier or a tampered
//     suffix batch cannot survive the anchor.
//
// Adoption is all-or-nothing: the committed boundary only moves — and a
// checkpoint's ledger is only swapped in — after the full chain verifies;
// a failed suffix replay is rolled back and the speculation it replaced,
// in-flight instances included, is restored. A source whose offer or data
// fails any check is banned for the rest of the sync and the transfer
// restarts from discovery, which is what makes lying chunk servers a
// liveness nuisance, never a safety risk. Timeouts are integer ticks
// (SyncTick) with exponential backoff — the replica owns no clock; the
// harness drives it deterministically.

// syncPhase is the state-transfer protocol state.
type syncPhase uint8

const (
	// syncIdle: normal operation; watching for evidence of a gap (see
	// behind).
	syncIdle syncPhase = iota
	// syncCollecting: broadcasting SyncRequest, waiting for a verifiable
	// SyncAvail.
	syncCollecting
	// syncFetching: requesting chunks of one accepted offer.
	syncFetching
)

const (
	// syncPatience is how many consecutive ticks the replica must observe
	// itself behind (with no commit progress) before asking for help: a
	// replica that is merely a few messages behind its peers commits on
	// its own as in-flight traffic lands, and an instance under load
	// routinely waits a few ticks for its quorum (a traced 10 s hot
	// cluster run on 2 cores sent 581 sync frames at 3 ticks, 4 at 8).
	syncPatience = 8
	// syncBaseBackoff and syncMaxBackoff bound the retry deadline ticks.
	// Ticks are scheduling rounds, and one request/reply round trip spans
	// many rounds under load (deliveries are one per round, drops re-queue),
	// so the clock must be generous: banning an honest server for network
	// slowness costs a full rediscovery.
	syncBaseBackoff = 16
	syncMaxBackoff  = 512
	// syncMaxAttempts is how many fetch rounds one source gets before it is
	// banned and discovery restarts.
	syncMaxAttempts = 6
	// maxSyncSuffix bounds the committed batch suffix an offer may plan. An
	// honest server's suffix is shorter than its retained window plus
	// checkpoint interval; the bound stops a hostile offer from driving an
	// unbounded fetch plan.
	maxSyncSuffix = 1 << 12
)

// syncOffer is one accepted, certificate-verified SyncAvail. A suffix-only
// offer has no shard digests: ckptSeq is then the committed boundary the
// suffix replays onto.
type syncOffer struct {
	source       ReplicaID
	ckptSeq      uint64
	shardDigests []hashsig.Digest
	frontier     merkle.Frontier
	cert         *CommitCert
}

// syncState is the laggard side of state transfer. Zero value is idle.
type syncState struct {
	phase syncPhase
	tick  uint64

	// ahead is the highest cluster-committed sequence number credibly
	// observed (certified view-change claims, new-view certificates, and
	// the window-implied floor of signed proposals); behindFor counts
	// consecutive ticks spent behind with no local commit progress.
	ahead         uint64
	behindFor     int
	lastCommitted uint64

	deadline uint64
	backoff  uint64
	attempts int

	offer  *syncOffer
	state  [][]byte        // per-shard chunks, nil = missing
	batch  []*ledger.Batch // suffix ckptSeq+1..cert.Seq(), nil = missing
	banned map[ReplicaID]bool
	// adopted counts completed transfers (verified and adopted).
	adopted int
}

// missing counts chunks not yet received and verified.
func (s *syncState) missing() int {
	n := 0
	for _, c := range s.state {
		if c == nil {
			n++
		}
	}
	for _, b := range s.batch {
		if b == nil {
			n++
		}
	}
	return n
}

// reset drops all transfer progress but keeps the ban list and trigger
// evidence: a failed source should stay banned across the restart.
func (s *syncState) reset() {
	s.phase = syncIdle
	s.deadline = 0
	s.backoff = 0
	s.attempts = 0
	s.offer = nil
	s.state = nil
	s.batch = nil
}

// Syncing reports whether a catch-up transfer is in progress.
func (r *Replica) Syncing() bool { return r.sync.phase != syncIdle }

// noteAhead records credible evidence that the cluster committed through
// seq. Callers pass only validated claims (certified view-changes,
// new-view certificates) or window-implied bounds from signed proposals;
// the evidence only gates when discovery starts — everything fetched is
// verified independently, so an inflated claim cannot corrupt state.
func (r *Replica) noteAhead(seq uint64) {
	if seq > r.sync.ahead {
		r.sync.ahead = seq
	}
}

// behind reports evidence of a gap above the committed boundary: a
// credible claim that the cluster committed past it, or in-flight
// instances at all. A peer that committed a batch never resends its
// messages, so a replica still waiting on that batch's quorum after
// syncPatience ticks without commit progress asks for the certificate
// instead — usually it matches local speculation and commits it without
// fetching anything.
func (r *Replica) behind() bool {
	return r.sync.ahead > r.committed || len(r.insts) > 0
}

// SyncTick advances the catch-up clock one step and returns any envelopes
// to send: discovery requests broadcast (the laggard does not know who can
// serve it), chunk re-requests unicast to the accepted offer's source. The
// harness or node runtime calls it once per scheduling round; all deadlines
// and backoffs are in these ticks, never wall time.
func (r *Replica) SyncTick() []Outbound {
	s := &r.sync
	s.tick++
	progressed := r.committed != s.lastCommitted
	if progressed {
		s.lastCommitted = r.committed
		s.behindFor = 0
	}
	var out []Outbound
	switch s.phase {
	case syncIdle:
		if !r.behind() {
			s.behindFor = 0
			break
		}
		if s.behindFor++; s.behindFor >= syncPatience {
			out = append(out, r.rediscover())
		}
	case syncCollecting:
		if progressed || !r.behind() {
			// Commits resumed (delayed traffic arrived after all): stop
			// asking; a renewed stall asks again.
			s.reset()
			break
		}
		if s.tick >= s.deadline {
			if s.backoff < syncMaxBackoff {
				s.backoff *= 2
			}
			s.deadline = s.tick + s.backoff
			out = append(out, toAll(&SyncRequest{Replica: r.cfg.ID, HaveSeq: r.committed}))
		}
	case syncFetching:
		if r.committed >= s.offer.cert.Seq() {
			// Organic progress overtook the offer while fetching; adopting
			// it now would move the watermark backwards.
			s.reset()
			break
		}
		if s.tick >= s.deadline {
			s.attempts++
			if s.attempts >= syncMaxAttempts {
				// The source keeps failing to deliver verifiable chunks:
				// ban it and rediscover.
				r.banSyncSource(s.offer.source)
				out = append(out, r.rediscover())
				break
			}
			if s.backoff < syncMaxBackoff {
				s.backoff *= 2
			}
			s.deadline = s.tick + s.backoff
			out = append(out, r.requestMissingChunks()...)
		}
	}
	return out
}

// rediscover drops any offer in progress and (re)starts discovery with a
// broadcast request for the gap above the committed boundary.
func (r *Replica) rediscover() Outbound {
	s := &r.sync
	s.reset()
	s.phase = syncCollecting
	s.backoff = syncBaseBackoff
	s.deadline = s.tick + s.backoff
	return toAll(&SyncRequest{Replica: r.cfg.ID, HaveSeq: r.committed})
}

// banSyncSource excludes a source for the remainder of this replica's sync
// effort (lying or persistently unresponsive chunk server).
func (r *Replica) banSyncSource(id ReplicaID) {
	if r.sync.banned == nil {
		r.sync.banned = make(map[ReplicaID]bool)
	}
	r.sync.banned[id] = true
	// Never ban ourselves into a corner: if every peer has now failed a
	// round, the failures were more likely congestion than malice — clear
	// the list and give everyone another chance rather than wait forever.
	if len(r.sync.banned) >= r.n-1 {
		r.sync.banned = nil
	}
}

// requestMissingChunks re-emits chunk requests for everything still owed by
// the current offer, each addressed to the offer's source alone — the only
// replica whose data the fetch plan was derived from.
func (r *Replica) requestMissingChunks() []Outbound {
	s := &r.sync
	if s.offer == nil {
		return nil
	}
	var out []Outbound
	for i, c := range s.state {
		if c == nil {
			out = append(out, toPeer(s.offer.source, &SyncChunkRequest{
				Replica: r.cfg.ID, Source: s.offer.source,
				CkptSeq: s.offer.ckptSeq, Kind: SyncChunkState, Index: uint64(i),
			}))
		}
	}
	for i, b := range s.batch {
		if b == nil {
			out = append(out, toPeer(s.offer.source, &SyncChunkRequest{
				Replica: r.cfg.ID, Source: s.offer.source,
				CkptSeq: s.offer.ckptSeq, Kind: SyncChunkBatch, Index: uint64(i),
			}))
		}
	}
	return out
}

// handleSyncRequest is the server side of discovery. A replica whose latest
// commit certificate is past the requester's watermark answers — the
// requester alone; an offer means nothing to anyone else — anchored by that
// certificate: a suffix-only offer while it still retains every batch above
// the watermark, otherwise its latest committed checkpoint's coordinates.
func (r *Replica) handleSyncRequest(m *SyncRequest, out *[]Outbound) error {
	if int(m.Replica) >= r.n || m.Replica == r.cfg.ID {
		return nil
	}
	if r.lastCommit == nil || r.lastCommit.Seq() != r.committed || r.committed <= m.HaveSeq {
		return nil
	}
	avail := &SyncAvail{Replica: r.cfg.ID, Requester: m.Replica, CkptSeq: m.HaveSeq, Cert: r.lastCommit}
	if r.led.BatchAt(m.HaveSeq+1) == nil || r.committed-m.HaveSeq > maxSyncSuffix {
		ck := r.led.CheckpointAt(r.committed)
		if ck == nil || ck.Seq <= m.HaveSeq {
			return nil
		}
		avail.CkptSeq = ck.Seq
		avail.ShardDigests = ck.ShardDigests
		avail.Frontier = ck.Frontier.Encode()
	}
	*out = append(*out, toPeer(m.Replica, avail))
	return nil
}

// handleSyncAvail is the laggard accepting an offer. The certificate must
// verify and certify a sequence number past our watermark. If it matches
// the local ledger it is applied directly and nothing is fetched; otherwise
// the fetch plan is derived entirely from the offer. First verified offer
// wins; an offer that fails a check bans its source.
func (r *Replica) handleSyncAvail(m *SyncAvail, out *[]Outbound) error {
	s := &r.sync
	if s.phase != syncCollecting || m.Requester != r.cfg.ID {
		return nil
	}
	if int(m.Replica) >= r.n || m.Replica == r.cfg.ID || s.banned[m.Replica] {
		return nil
	}
	if m.Cert == nil || m.Cert.Seq() <= r.committed {
		return nil
	}
	offer, err := r.checkOffer(m)
	if err != nil {
		r.banSyncSource(m.Replica)
		return err
	}
	if r.commitFromCert(m.Cert, out) {
		s.reset()
		return nil
	}
	s.offer = offer
	s.state = make([][]byte, len(offer.shardDigests))
	s.batch = make([]*ledger.Batch, m.Cert.Seq()-offer.ckptSeq)
	s.phase = syncFetching
	s.attempts = 0
	s.backoff = syncBaseBackoff
	s.deadline = s.tick + s.backoff
	*out = append(*out, r.requestMissingChunks()...)
	return nil
}

// checkOffer verifies everything an offer claims before anything is
// fetched for it: the certificate's structure and signatures, the suffix
// bound, and per kind — a suffix-only offer must start at or below the
// committed boundary it replays onto (only the batches above that boundary
// are fetched); a checkpoint offer's shard digest vector must combine to
// the certified d_C and its frontier must decode.
func (r *Replica) checkOffer(m *SyncAvail) (*syncOffer, error) {
	cert := m.Cert
	if m.CkptSeq > cert.Seq() || cert.Seq()-m.CkptSeq > maxSyncSuffix {
		return nil, fmt.Errorf("%w: sync offer from %d under certificate %d", ErrInvalid, m.CkptSeq, cert.Seq())
	}
	offer := &syncOffer{source: m.Replica, ckptSeq: m.CkptSeq, cert: cert}
	if len(m.ShardDigests) == 0 {
		if m.CkptSeq > r.committed {
			return nil, fmt.Errorf("%w: suffix offer from %d above committed %d", ErrInvalid, m.CkptSeq, r.committed)
		}
		offer.ckptSeq = r.committed
	} else {
		if m.CkptSeq == 0 {
			return nil, fmt.Errorf("%w: sync offer for checkpoint 0", ErrInvalid)
		}
		if got := uint32(len(m.ShardDigests)); got != r.led.Shards() {
			return nil, fmt.Errorf("%w: sync offer with %d shards, replica runs %d", ErrInvalid, got, r.led.Shards())
		}
		// The certified header pins the digest vector: d_C is the
		// domain-tagged combination of exactly these per-shard digests.
		if kv.CombineShardDigests(m.ShardDigests) != cert.Prop.Header.CkptDigest {
			return nil, fmt.Errorf("%w: sync offer digests do not combine to the certified d_C", ErrInvalid)
		}
		f, err := merkle.DecodeFrontier(m.Frontier)
		if err != nil {
			return nil, fmt.Errorf("%w: sync offer frontier: %v", ErrInvalid, err)
		}
		offer.shardDigests = append([]hashsig.Digest(nil), m.ShardDigests...)
		offer.frontier = f
	}
	tasks, ok := cert.structure(r.cfg.Peers, r.quorum)
	if !ok || !r.verifyTasks(tasks) {
		return nil, fmt.Errorf("%w: sync offer certificate from %d does not verify", ErrInvalid, m.Replica)
	}
	return offer, nil
}

// handleSyncChunkRequest is the server side of the fetch: serve one chunk,
// unicast back to the requester (chunks are the bulk of sync traffic;
// broadcasting them would multiply transfer bandwidth by the cluster size).
// A batch chunk is any retained committed batch; a state chunk is one
// shard of this replica's latest committed checkpoint, which must be the
// one requested. Requests for data this replica no longer holds (pruned
// past, or rolled back) are silently ignored; the requester's timeout
// re-discovers.
func (r *Replica) handleSyncChunkRequest(m *SyncChunkRequest, out *[]Outbound) error {
	if m.Source != r.cfg.ID || int(m.Replica) >= r.n || m.Replica == r.cfg.ID {
		return nil
	}
	var data []byte
	switch m.Kind {
	case SyncChunkState:
		ck := r.led.CheckpointAt(r.committed)
		if ck == nil || ck.Seq != m.CkptSeq || m.Index >= uint64(len(ck.ShardDigests)) {
			return nil
		}
		var buf bytes.Buffer
		if err := ck.Store.SerializeShard(int(m.Index), &buf); err != nil {
			return nil
		}
		data = buf.Bytes()
	case SyncChunkBatch:
		seq := m.CkptSeq + 1 + m.Index
		if seq <= m.CkptSeq || seq > r.committed {
			return nil
		}
		b := r.led.BatchAt(seq)
		if b == nil {
			return nil
		}
		data = encodeBatchChunk(b)
	default:
		return nil
	}
	*out = append(*out, toPeer(m.Replica, &SyncChunk{
		Replica: r.cfg.ID, Requester: m.Replica,
		CkptSeq: m.CkptSeq, Kind: m.Kind, Index: m.Index, Data: data,
	}))
	return nil
}

// encodeBatchChunk frames one batch as a chunk payload.
func encodeBatchChunk(b *ledger.Batch) []byte {
	w := wire.NewAppendWriter(make([]byte, 0, 512))
	b.EncodeTo(w)
	if err := w.Flush(); err != nil {
		panic(err) // appending never fails
	}
	return w.AppendedBytes()
}

// handleSyncChunk is the laggard receiving one chunk. State chunks verify
// immediately against the offer's digest vector; batch chunks must decode
// and carry the right sequence number, with full verification deferred to
// adoption. A chunk that fails its check is simply not recorded — the next
// timeout re-requests it, and persistent failure bans the source.
func (r *Replica) handleSyncChunk(m *SyncChunk, out *[]Outbound) error {
	s := &r.sync
	if s.phase != syncFetching || s.offer == nil {
		return nil
	}
	if m.Requester != r.cfg.ID || m.Replica != s.offer.source || m.CkptSeq != s.offer.ckptSeq {
		return nil
	}
	switch m.Kind {
	case SyncChunkState:
		if m.Index >= uint64(len(s.state)) || s.state[m.Index] != nil {
			return nil
		}
		if hashsig.Sum(m.Data) != s.offer.shardDigests[m.Index] {
			return fmt.Errorf("%w: sync state chunk %d does not hash to its certified digest", ErrInvalid, m.Index)
		}
		s.state[m.Index] = m.Data
	case SyncChunkBatch:
		if m.Index >= uint64(len(s.batch)) || s.batch[m.Index] != nil {
			return nil
		}
		rd := wire.NewBytesReader(m.Data)
		b := ledger.DecodeBatch(rd)
		rd.ExpectEOF()
		if err := rd.Err(); err != nil {
			return fmt.Errorf("%w: sync batch chunk %d: %v", ErrInvalid, m.Index, err)
		}
		if want := s.offer.ckptSeq + 1 + m.Index; b.Header.Seq != want {
			return fmt.Errorf("%w: sync batch chunk %d carries seq %d, want %d", ErrInvalid, m.Index, b.Header.Seq, want)
		}
		s.batch[m.Index] = b
	default:
		return nil
	}
	if s.missing() > 0 {
		return nil
	}
	if r.committed >= s.offer.cert.Seq() {
		// Organic progress overtook the transfer; drop it.
		s.reset()
		return nil
	}
	if err := r.adoptSync(out); err != nil {
		// The assembled transfer failed the certificate anchor: the source
		// lied somewhere cheap verification could not catch (frontier,
		// batch contents). Ban it and rediscover.
		r.banSyncSource(s.offer.source)
		*out = append(*out, r.rediscover())
		return fmt.Errorf("%w: sync adoption failed: %v", ErrInvalid, err)
	}
	return nil
}

// adoptSync adopts the fully fetched offer, all or nothing, and returns the
// replica to normal operation at the certified watermark.
func (r *Replica) adoptSync(out *[]Outbound) error {
	s := &r.sync
	var err error
	if len(s.offer.shardDigests) == 0 {
		err = r.adoptSuffix(out)
	} else {
		err = r.adoptCheckpoint()
	}
	if err != nil {
		return err
	}
	s.reset()
	s.adopted++
	return nil
}

// adoptSuffix replays the fetched suffix onto the local committed ledger
// and commits it through the certificate. Local speculation that already
// holds a suffix batch's header is the same chain and is kept; from the
// first divergence on, speculation is set aside (Lemma 1) and the fetched
// batches are applied. If a batch fails to apply or the final header misses
// the certificate, the replay is rolled back, the speculation set aside is
// re-applied with its instances, and nothing commits.
func (r *Replica) adoptSuffix(out *[]Outbound) error {
	offer := r.sync.offer
	from := uint64(0)         // first seq the replay applied; 0 while none
	var aside []*ledger.Batch // the local speculation it replaced
	insts := maps.Clone(r.insts)
	fail := func(err error) error {
		if from != 0 {
			if r.led.Seq() > from {
				if err := r.led.RollbackTo(from); err != nil {
					panic(err) // the replay's first ApplyBatch left the mark
				}
			}
			for _, b := range aside {
				if _, err := r.led.ApplyBatch(b); err != nil {
					panic(err) // it applied onto this very state before
				}
			}
			r.insts = insts
			r.gen++
		}
		return err
	}
	for i, b := range r.sync.batch {
		seq := offer.ckptSeq + 1 + uint64(i)
		if seq <= r.committed {
			continue
		}
		if from == 0 {
			if local := r.led.BatchAt(seq); local != nil && local.Header.SigningDigest() == b.Header.SigningDigest() {
				continue
			}
			from = seq
			for s := seq; s < r.led.Seq(); s++ {
				aside = append(aside, r.led.BatchAt(s))
			}
			r.abandonFrom(seq)
		}
		if _, err := r.led.ApplyBatch(b); err != nil {
			return fail(err)
		}
	}
	if !r.commitFromCert(offer.cert, out) {
		return fail(fmt.Errorf("%w: sync suffix does not reproduce the certified header", ErrInvalid))
	}
	return nil
}

// adoptCheckpoint restores a candidate ledger from the state chunks and
// replays the suffix onto it; only if the final header reproduces the
// certified signing digest does the replica swap ledgers and resume at the
// certified watermark.
func (r *Replica) adoptCheckpoint() error {
	s := &r.sync
	offer := s.offer
	shards := uint32(len(offer.shardDigests))
	store, err := kv.NewShardedFromChunks(shards, s.state)
	if err != nil {
		return err
	}
	ck := &ledger.Checkpoint{
		Seq:          offer.ckptSeq,
		Store:        store,
		ShardDigests: offer.shardDigests,
		Frontier:     offer.frontier,
		Digest:       offer.cert.Prop.Header.CkptDigest,
	}
	cand, err := ledger.NewFromCheckpoint(ledger.Config{
		Key:             r.cfg.Key,
		App:             r.cfg.App,
		CheckpointEvery: r.cfg.CheckpointEvery,
		Shards:          shards,
	}, ck)
	if err != nil {
		return err
	}
	cert := offer.cert
	certHeader := &cert.Prop.Header
	if len(s.batch) == 0 {
		// Empty suffix: the certificate is for the checkpoint batch itself,
		// so the frontier must reproduce the certified history commitment
		// directly (with a suffix, the per-batch ¯M checks anchor it).
		if cand.HistSize() != certHeader.HistSize || cand.HistRoot() != certHeader.MRoot {
			return fmt.Errorf("%w: sync frontier does not reproduce the certified history root", ErrInvalid)
		}
	} else {
		for _, b := range s.batch {
			if _, err := cand.ApplyBatch(b); err != nil {
				return err
			}
		}
		final := cand.BatchAt(cert.Seq())
		if final == nil || final.Header.SigningDigest() != certHeader.SigningDigest() {
			return fmt.Errorf("%w: sync suffix does not reproduce the certified header", ErrInvalid)
		}
	}

	// Verified end to end: swap the ledger and resume as a normal replica
	// at the certified watermark. Every in-flight instance was speculation
	// on the abandoned ledger; the certificate's view is adopted (a replica
	// this far behind trusts certified progress, as with new-view
	// re-proposals).
	r.abandonFrom(r.committed + 1) // keeps the in-flight prepared claims
	r.led = cand
	r.committed = cert.Seq()
	r.lastCommit = cert
	for seq := range r.claims {
		if seq <= r.committed {
			delete(r.claims, seq)
		}
	}
	if cert.Prop.View > r.view {
		r.view = cert.Prop.View
	}
	if r.inViewChange && r.vcTarget <= r.view {
		r.inViewChange = false
		r.ownVC = nil
	}
	r.mustRepropose = make(map[uint64]hashsig.Digest)
	r.pendingRepropose = nil
	if r.committed > r.proposeFloor {
		r.proposeFloor = r.committed
	}
	for k := range r.seen {
		if k.seq <= r.committed {
			delete(r.seen, k)
		}
	}
	// Drop buffered messages the new watermark makes permanently stale
	// (ack-and-discard below the checkpoint, instead of holding them until
	// the bounded buffer churns them out).
	kept := r.future[:0]
	for _, m := range r.future {
		if seq, ok := messageSeq(m); ok && seq+uint64(r.window) <= r.committed {
			continue
		}
		kept = append(kept, m)
	}
	for i := len(kept); i < len(r.future); i++ {
		r.future[i] = nil
	}
	r.future = kept
	r.gen++
	return nil
}

// Syncs returns how many catch-up transfers (suffix-only or checkpoint)
// this replica has adopted.
func (r *Replica) Syncs() int { return r.sync.adopted }

// messageSeq extracts the batch sequence number a message is about, for
// staleness decisions. View-change traffic is view-keyed, not seq-keyed.
func messageSeq(m Message) (uint64, bool) {
	switch msg := m.(type) {
	case *PrePrepare:
		return msg.Prop.Seq(), true
	case *Prepare:
		return msg.Prop.Seq(), true
	case *Commit:
		return msg.Seq, true
	}
	return 0, false
}

// maybePrune drops committed batches below both the latest committed
// checkpoint and the last Window commits, keeping steady-state ledger
// memory at O(window + checkpoint interval). What survives is what a peer
// may still ask for: the recent suffix a slightly-behind laggard fetches
// suffix-only, the chunk-servable checkpoint, and the suffix above it;
// anything older is reachable only through checkpoint transfer.
func (r *Replica) maybePrune() {
	ck := r.led.CheckpointAt(r.committed)
	if ck == nil {
		return
	}
	w := uint64(r.window)
	if r.committed+1 <= w {
		return // the whole history is still inside the retained window
	}
	r.led.Prune(min(ck.Seq+1, r.committed+1-w))
}
