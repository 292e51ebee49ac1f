// Package ledger implements the IA-CCF replicated ledger: batches of
// client requests executed against the sharded key-value store, committed
// to a history tree M and per-shard batch trees G_s whose roots roll up
// into the signed combined root ¯G, with offline-verifiable receipts and
// periodic checkpoint digests d_C (paper §3, §6). ExecuteBatch is the
// proposer path, ApplyBatch the backup path; both run a conflict-aware
// parallel executor that must stay byte-identical to the sequential core.
//
// # Memory ownership on the commit path
//
// The commit path recycles memory aggressively (see internal/pool), so
// every API boundary follows explicit ownership rules:
//
//   - Everything ExecuteBatch and ApplyBatch RETURN is caller-owned
//     forever: Batch headers, entries, and Receipts never alias pooled
//     scratch, and the ledger never writes to them after returning.
//     Receipts from one call share arena backing with each other (paths
//     in one []Digest arena, payloads in one []byte arena) — safe because
//     the arenas are capped three-index sub-slices that a client append
//     cannot grow into a neighbour — but never with any pool.
//   - Request slices passed IN are read-only during the call and not
//     retained. Entries inside a Batch handed to ApplyBatch are adopted
//     into the retained stream and must not be mutated afterwards, same
//     as Batches() results.
//   - Internal scratch (per-entry digests, leaf hashes, per-shard
//     grouping tables) lives on the Ledger and is reused batch to batch;
//     it is dead the moment the call returns, which the aliasing property
//     tests prove by poisoning pools between batches (pool.SetPoison).
//
// These rules, plus the determinism requirements (no map-order bytes, no
// wall clocks or unseeded randomness), are enforced statically by the
// iaccfvet analyzers — see internal/analysis/README.md.
//
// # Pruning boundary invariant
//
// Prune(before) establishes a pruned boundary baseSeq = before-1: batches
// at or below it are dropped, the history tree is compacted past their
// leaves (only the peak summary survives), and their rollback marks are
// discarded. Everything above the boundary behaves exactly as before —
// BatchAt, RollbackTo, ApplyBatch. At or below it, BatchAt returns nil and
// RollbackTo fails with ErrPruned (wrapped, so callers can tell a pruned
// boundary from an unknown sequence number). Callers must maintain: the
// boundary never exceeds the latest checkpoint boundary (CheckpointAt(committed) stays
// non-nil once a checkpoint committed, so the retained checkpoint plus the
// retained batch suffix always reconstruct the present state), and never
// exceeds the consensus commit watermark (uncommitted batches must stay
// rollbackable per Lemma 1). Under the consensus prune policy —
// min(latest committed checkpoint + 1, committed − W + 1) — the retained
// batch count is bounded by max(CheckpointEvery − 1, W) committed batches
// plus at most W speculative ones: steady-state memory is
// O(window + checkpoint interval) regardless of ledger length.
package ledger

import (
	"errors"
	"fmt"
	"io"

	"iaccf/internal/hashsig"
	"iaccf/internal/kv"
	"iaccf/internal/merkle"
	"iaccf/internal/wire"
)

var (
	// ErrConfig reports a Ledger constructed without a key or app.
	ErrConfig = errors.New("ledger: config needs a signing key and an app")
	// ErrUnknownSeq reports a rollback to a batch boundary that was never
	// marked or has been pruned.
	ErrUnknownSeq = errors.New("ledger: unknown batch sequence number")
	// ErrBadBatch reports a malformed batch on decode.
	ErrBadBatch = errors.New("ledger: malformed batch")
	// ErrPruned reports an operation on a batch at or below the pruned
	// checkpoint boundary: the batch and its rollback mark no longer exist.
	// Consensus treats it as the signal to re-sync via state transfer.
	ErrPruned = errors.New("ledger: sequence below the pruned checkpoint boundary")
)

// MaxRequestLen bounds request bodies accepted for execution. It sits far
// enough under wire.MaxValueLen that every encoded entry (payload plus
// fixed header fields) stays within the decoder limits — without an
// ingress cap, a proposer could execute and sign a batch whose entries no
// backup or auditor can decode.
const MaxRequestLen = wire.MaxValueLen - 128

// headerDomain domain-separates batch header signatures from all other
// signed messages.
var headerDomain = []byte("iaccf-batch-header:")

// BatchHeader is the signed commitment a replica issues for one executed
// batch. It binds the batch sequence number, the history tree root ¯M
// after the batch, the combined batch tree root ¯G with its entry count and
// the shard count it was built under, and the digest d_C of the latest
// checkpoint (paper §3.1: the signed part of a pre-prepare; §6: sharded
// execution). ¯G is the root of a small tree over the per-shard batch tree
// roots G_s, so the shard count is part of what the signature commits to —
// the same entries partitioned differently produce a different ¯G and a
// different d_C.
type BatchHeader struct {
	Seq        uint64         // batch sequence number
	HistSize   uint64         // leaves in M after this batch
	MRoot      hashsig.Digest // ¯M
	GRoot      hashsig.Digest // ¯G: root over the G_s shard roots
	GSize      uint64         // total entries under G across all shards
	Shards     uint32         // execution shard count (>= 1)
	CkptDigest hashsig.Digest // d_C of the latest checkpoint (zero before the first)
	Sig        hashsig.Signature
}

// writeSignedFields emits every header field covered by the signature, in
// signing order. It is the single enumeration shared by SigningDigest and
// the batch codec, so the signature preimage and the serialized form can
// never drift apart; readSignedFields is its inverse.
func (h *BatchHeader) writeSignedFields(w *wire.Writer) {
	w.Uint64(h.Seq)
	w.Uint64(h.HistSize)
	w.Digest(h.MRoot)
	w.Digest(h.GRoot)
	w.Uint64(h.GSize)
	w.Uint32(h.Shards)
	w.Digest(h.CkptDigest)
}

func (h *BatchHeader) readSignedFields(r *wire.Reader) {
	h.Seq = r.Uint64()
	h.HistSize = r.Uint64()
	h.MRoot = r.Digest()
	h.GRoot = r.Digest()
	h.GSize = r.Uint64()
	h.Shards = r.Uint32()
	h.CkptDigest = r.Digest()
}

// SigningDigest returns the digest the replica signs: every header field
// except the signature, domain separated. The preimage is assembled in
// pooled scratch through the append-mode writer — this runs twice per batch
// per replica (sign and verify) and must not allocate.
func (h *BatchHeader) SigningDigest() hashsig.Digest {
	b := wire.GetScratch(len(headerDomain) + 128)
	w := wire.NewAppendWriter(append(b, headerDomain...))
	h.writeSignedFields(w)
	b = w.AppendedBytes()
	d := hashsig.Sum(b)
	wire.PutScratch(b)
	return d
}

// Verify reports whether the header carries a valid signature by pub.
func (h *BatchHeader) Verify(pub *hashsig.PublicKey) bool {
	return pub.Verify(h.SigningDigest(), h.Sig)
}

// MaxSigLen bounds signature fields accepted on decode.
const MaxSigLen = 1 << 10

// EncodeTo writes the header — signed fields in signing order, then the
// signature — so consensus messages can frame headers on their own, outside
// a batch stream.
func (h *BatchHeader) EncodeTo(w *wire.Writer) {
	h.writeSignedFields(w)
	w.Bytes(h.Sig)
}

// DecodeHeader reads a header written by EncodeTo. Errors stick to the
// reader; the caller checks r.Err().
func DecodeHeader(r *wire.Reader) BatchHeader {
	var h BatchHeader
	h.readSignedFields(r)
	h.Sig = r.Bytes(MaxSigLen)
	return h
}

// Batch is one executed batch: the signed header plus the entries it
// covers, in ledger order. A sequence of batches is the ledger stream an
// auditor replays.
type Batch struct {
	Header  BatchHeader
	Entries []Entry
}

// Receipt is the client's offline-verifiable proof that its transaction
// executed in a given batch: the transaction entry, its two-stage audit
// path, and the signed header the path roots in (paper §3.1, §6). The path
// prefix proves the entry within its per-shard batch tree G_s; the suffix
// proves that shard root within the combined tree whose root ¯G the header
// signs. The split point is implied by (Index, ShardSize), never declared.
//
// Shard, Index, and ShardSize are position metadata, not signed: what the
// signature plus leaf/interior domain separation bind is that this exact
// entry is committed under ¯G. A replica could emit aliasing position
// metadata whose roll-up shape happens to coincide, but never a different
// entry or a different root, so receipts stay sound as execution proofs.
type Receipt struct {
	Header    BatchHeader
	Entry     Entry
	Shard     uint32 // shard tree the entry was placed in
	Index     uint64 // leaf index of Entry within its shard tree
	ShardSize uint64 // leaves in that shard tree
	Path      []hashsig.Digest
}

// Verify checks the receipt against the replica public key: the header
// signature must be valid and the entry's sharded audit path must root in
// ¯G under the header's signed shard count.
func (r *Receipt) Verify(pub *hashsig.PublicKey) bool {
	if !r.Header.Verify(pub) {
		return false
	}
	return merkle.VerifyShardedPath(r.Entry.Digest(), r.Index, r.ShardSize,
		uint64(r.Shard), uint64(r.Header.Shards), r.Path, r.Header.GRoot)
}

// Request is one client or member submission awaiting execution.
type Request struct {
	// Governance records the request on the ledger without executing it
	// against the store.
	Governance bool
	// Author is the submitting key's ID (client for transactions, member
	// for governance).
	Author hashsig.Digest
	// ReqNo is the client's request number i, making ⟨t,i⟩ unique per
	// client so duplicate submissions are distinguishable on the ledger.
	ReqNo uint64
	// Body is the application payload t (or the governance action).
	Body []byte
}

// Config parameterizes a Ledger.
type Config struct {
	// Key signs batch headers. Required.
	Key *hashsig.PrivateKey
	// App executes transaction payloads. Required.
	App App
	// CheckpointEvery takes a state checkpoint (and appends a checkpoint
	// marker entry) every n batches. 0 means every batch. Validated and
	// normalized once in New.
	CheckpointEvery uint64
	// Shards partitions the key-value store and the per-batch trees into
	// this many shards (paper §6). 0 means 1 (unsharded). Must not exceed
	// kv.MaxShards.
	Shards uint32
}

// Ledger executes batches of requests against a key-value store while
// maintaining the history tree M, emitting signed batch headers and client
// receipts. It is single-writer, like the replica execution loop it models.
type Ledger struct {
	cfg      Config
	store    *kv.ShardedStore
	hist     *merkle.Tree
	nextSeq  uint64
	lastCkpt hashsig.Digest
	marks    []ledgerMark
	// baseSeq is the pruned boundary: batches[0] (if any) has sequence
	// number baseSeq+1. Zero until the first Prune (or the checkpoint seq
	// after NewFromCheckpoint); see the package doc's pruning invariant.
	baseSeq uint64
	batches []*Batch
	// ckpts are the retained checkpoint materializations, ascending by Seq
	// (speculative ones included; rollback discards them). Prune keeps only
	// those at or above the boundary.
	ckpts   []*Checkpoint
	scratch execScratch
}

// execScratch is per-batch working storage handed batch to batch: the
// digest and leaf-hash vectors plus the per-shard grouping tables. Nothing
// stored here may escape ExecuteBatch/ApplyBatch — every value a caller
// retains (entries, headers, receipt paths, payloads) is freshly allocated
// or arena-backed per batch. The Ledger is single-writer, so reuse without
// synchronization is safe; the concurrent entry hasher writes disjoint
// indices and is joined before the slices are read or reused.
type execScratch struct {
	digests  []hashsig.Digest   // entry digests, one per entry
	leaves   []hashsig.Digest   // merkle.LeafHash of each digest
	shardOf  []uint32           // shard assignment per entry
	leafPos  []uint64           // leaf index of each entry within its shard tree
	perShard [][]hashsig.Digest // leaf hashes grouped by shard (inner slices reused)
}

// grow returns the scratch vectors sized for n entries and shards shard
// groups, reusing prior capacity.
func (s *execScratch) grow(n int, shards uint32) {
	s.digests = growSlice(s.digests, n)
	s.leaves = growSlice(s.leaves, n)
	s.shardOf = growSlice(s.shardOf, n)
	s.leafPos = growSlice(s.leafPos, n)
	if cap(s.perShard) < int(shards) {
		s.perShard = make([][]hashsig.Digest, shards)
	}
	s.perShard = s.perShard[:shards]
	for i := range s.perShard {
		s.perShard[i] = s.perShard[i][:0]
	}
}

func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ledgerMark pairs a kv mark with the history-tree size and checkpoint
// digest at the same boundary, so RollbackTo restores all three in
// lockstep.
type ledgerMark struct {
	seq      uint64
	histSize uint64
	lastCkpt hashsig.Digest
}

// New returns a ledger executing against a fresh sharded store. The first
// batch has sequence number 1. Configuration is validated here, once:
// CheckpointEvery and Shards are normalized (0 → 1) so the execution path
// never re-checks them, and an out-of-range shard count is an error rather
// than a latent panic.
func New(cfg Config) (*Ledger, error) {
	if cfg.Key == nil || cfg.App == nil {
		return nil, ErrConfig
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 1
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards > kv.MaxShards {
		return nil, fmt.Errorf("%w: shard count %d exceeds limit %d", ErrConfig, cfg.Shards, kv.MaxShards)
	}
	return &Ledger{
		cfg:     cfg,
		store:   kv.NewSharded(int(cfg.Shards)),
		hist:    merkle.New(),
		nextSeq: 1,
	}, nil
}

// Seq returns the sequence number the next batch will get.
func (l *Ledger) Seq() uint64 { return l.nextSeq }

// HistRoot returns the current history tree root ¯M.
func (l *Ledger) HistRoot() hashsig.Digest { return l.hist.Root() }

// HistSize returns the number of entries in the history tree.
func (l *Ledger) HistSize() uint64 { return l.hist.Size() }

// StateDigest returns the deterministic sharded digest of the current store
// state — the d_C a checkpoint taken now would pin. Clean shards reuse
// cached digests, so this is cheap between checkpoints.
func (l *Ledger) StateDigest() hashsig.Digest { return l.store.CheckpointDigest() }

// Shards returns the execution shard count.
func (l *Ledger) Shards() uint32 { return l.cfg.Shards }

// Get reads a key from the executed state.
func (l *Ledger) Get(key string) ([]byte, bool) { return l.store.Get(key) }

// Batches returns the emitted batch stream since genesis (or the last
// rollback), oldest first, as a fresh slice: appending to or reordering the
// result cannot disturb the ledger's retained history. The batches
// themselves are shared and must be treated as immutable (deep-copying
// every payload on each call would make auditing quadratic).
func (l *Ledger) Batches() []*Batch {
	return append([]*Batch(nil), l.batches...)
}

// BatchAt returns the stored batch for seq, or nil when seq is out of
// range — above the retained stream or at/below the pruned boundary. The
// retained stream is contiguous from baseSeq+1 (rollbacks truncate a
// suffix, Prune drops a prefix), so this is index arithmetic — hot paths
// (consensus catch-up, node receipt delivery) must not pay Batches()'s
// slice copy per lookup. The result is shared and must be treated as
// immutable, like Batches.
func (l *Ledger) BatchAt(seq uint64) *Batch {
	if seq <= l.baseSeq || seq > l.baseSeq+uint64(len(l.batches)) {
		return nil
	}
	return l.batches[seq-l.baseSeq-1]
}

// entryShard deterministically assigns a ledger entry to a per-shard batch
// tree G_s. Transactions and governance actions are routed by author — the
// request-routing analogue of the paper's key-space partitioning, chosen so
// an auditor can re-derive the placement from the entry alone (a write-set
// based placement would be undefined for aborted transactions). Checkpoint
// markers always live in shard 0.
func entryShard(e *Entry, shards uint32) uint32 {
	if shards <= 1 || e.Kind == KindCheckpoint {
		return 0
	}
	return kv.ShardOfKey(string(e.Author[:]), shards)
}

// ExecuteBatch executes the requests as one batch (paper §6). When the
// batch, shard count, CPU count, and app allow it (see exec_parallel.go),
// requests are grouped into conflict-free waves by declared shard
// footprint and executed concurrently, with a sequential re-run as the
// safety net — the emitted entries, header, and receipts are byte-identical
// either way. The sequential core runs each transaction in its own kv
// transaction (aborting individually on error) and overlaps entry
// digesting with execution through a concurrent hashing stage. The digests
// are then grouped into per-shard batch trees G_s (built in parallel
// across a bounded worker pool) whose roots combine into the single ¯G the
// header signs; every entry is appended to M in ledger order, a checkpoint
// marker (with the incremental sharded digest d_C) is appended when due,
// and the signed header plus one receipt per transaction entry are
// returned. The header's ECDSA signature is computed concurrently with
// receipt construction — the last serial hot path on the commit critical
// path.
func (l *Ledger) ExecuteBatch(reqs []Request) (*Batch, []Receipt, error) {
	for i := range reqs {
		if len(reqs[i].Body) > MaxRequestLen {
			return nil, nil, fmt.Errorf("%w: request %d body %d bytes exceeds %d",
				ErrBadBatch, i, len(reqs[i].Body), MaxRequestLen)
		}
	}
	seq := l.nextSeq
	l.store.Mark(seq)
	l.marks = append(l.marks, ledgerMark{seq: seq, histSize: l.hist.Size(), lastCkpt: l.lastCkpt})

	// If anything below panics (a buggy App retaining a finished Tx, say),
	// the execution cores release their hashing and wave workers on the way
	// out; the mark pushed above stays, so a caller that recovers can
	// RollbackTo(seq) to discard the half-executed batch.
	maxEntries := len(reqs) + 1 // every request plus at most one checkpoint marker
	l.scratch.grow(maxEntries, l.cfg.Shards)
	digests, leaves := l.scratch.digests, l.scratch.leaves
	var entries []Entry
	var txIdx []int
	executed := false
	if f, ok := l.parallelExec(len(reqs)); ok {
		entries = make([]Entry, len(reqs), maxEntries)
		txIdx, executed = l.runParallel(f, seq, reqs, entries, digests, leaves)
	}
	if !executed {
		entries = make([]Entry, 0, maxEntries)
		entries, txIdx = l.runSequential(reqs, entries, digests, leaves)
	}

	if seq%l.cfg.CheckpointEvery == 0 {
		// Incremental d_C: only shards touched since the last checkpoint are
		// re-hashed (the refactor's perf win over the old full rescan).
		d := l.store.CheckpointDigest()
		entries = append(entries, Entry{Kind: KindCheckpoint, Seq: seq, State: d})
		digests[len(entries)-1] = entries[len(entries)-1].Digest()
		leaves[len(entries)-1] = merkle.LeafHash(digests[len(entries)-1])
		l.lastCkpt = d
	}

	// Group the pre-computed leaf hashes by shard: both G_s and M consume
	// them directly, so the roll-up below does no per-entry SHA work beyond
	// the interior nodes.
	shards := l.cfg.Shards
	shardOf := l.scratch.shardOf[:len(entries)]
	leafPos := l.scratch.leafPos[:len(entries)]
	perShard := l.scratch.perShard
	for i := range entries {
		s := entryShard(&entries[i], shards)
		shardOf[i] = s
		leafPos[i] = uint64(len(perShard[s]))
		perShard[s] = append(perShard[s], leaves[i])
	}
	shardRoots := make([]hashsig.Digest, shards)
	shardPaths := make([][][]hashsig.Digest, shards)
	forEachShard(int(shards), len(entries), func(s int) {
		g := merkle.New()
		_, root, paths, err := g.AppendAndProveLeafHashes(perShard[s])
		if err != nil {
			// A fresh tree over in-range leaves cannot fail.
			panic(err)
		}
		shardRoots[s] = root
		shardPaths[s] = paths
	})
	top := merkle.New()
	_, gRoot, topPaths, err := top.AppendAndProve(shardRoots)
	if err != nil {
		panic(err)
	}
	for _, lh := range leaves[:len(entries)] {
		l.hist.AppendLeafHash(lh)
	}

	header := BatchHeader{
		Seq:        seq,
		HistSize:   l.hist.Size(),
		MRoot:      l.hist.Root(),
		GRoot:      gRoot,
		GSize:      uint64(len(entries)),
		Shards:     shards,
		CkptDigest: l.lastCkpt,
	}
	// The ECDSA sign runs concurrently with receipt construction below; the
	// signature is patched into the batch and every receipt once both are
	// done. Nothing observes the header before this function returns.
	sigf := l.cfg.Key.SignAsync(header.SigningDigest())

	batch := &Batch{Header: header, Entries: entries}
	receipts := make([]Receipt, len(txIdx))
	// Two arenas back every receipt in the batch: one for the combined
	// shard+top audit paths, one for the defensive payload copies (a client
	// mutating its receipt must not corrupt the ledger's retained stream).
	// Each receipt gets a three-index sub-slice whose capacity ends at its
	// own region, so appending to one receipt's path or payload reallocates
	// instead of stomping the next receipt's. The per-shard top path is
	// copied from the single slice the top tree produced — same-shard
	// receipts no longer each build their own intermediate path slice.
	pathTotal, payloadTotal := 0, 0
	for _, idx := range txIdx {
		s := shardOf[idx]
		pathTotal += len(shardPaths[s][leafPos[idx]]) + len(topPaths[s])
		payloadTotal += len(entries[idx].Payload)
	}
	pathArena := make([]hashsig.Digest, 0, pathTotal)
	payloadArena := make([]byte, 0, payloadTotal)
	for i, idx := range txIdx {
		e := entries[idx]
		pStart := len(payloadArena)
		payloadArena = append(payloadArena, e.Payload...)
		e.Payload = payloadArena[pStart:len(payloadArena):len(payloadArena)]
		s := shardOf[idx]
		aStart := len(pathArena)
		pathArena = append(pathArena, shardPaths[s][leafPos[idx]]...)
		pathArena = append(pathArena, topPaths[s]...)
		receipts[i] = Receipt{
			Header:    header,
			Entry:     e,
			Shard:     s,
			Index:     leafPos[idx],
			ShardSize: uint64(len(perShard[s])),
			Path:      pathArena[aStart:len(pathArena):len(pathArena)],
		}
	}
	sig := sigf.MustWait()
	batch.Header.Sig = sig
	for i := range receipts {
		receipts[i].Header.Sig = sig
	}
	l.batches = append(l.batches, batch)
	l.nextSeq = seq + 1
	if seq%l.cfg.CheckpointEvery == 0 {
		l.captureCheckpoint(seq)
	}
	return batch, receipts, nil
}

// runSequential is the reference execution core: one kv transaction per
// request, strictly in batch order, with entry digesting pipelined through
// hasher. It is both the single-core fast path and the fallback that
// re-executes a batch whose speculative parallel run was abandoned; its
// behaviour defines what the parallel core must reproduce byte-for-byte.
func (l *Ledger) runSequential(reqs []Request, entries []Entry, digests, leaves []hashsig.Digest) ([]Entry, []int) {
	// Stage 2 (hashing) consumes completed entries concurrently with stage 1
	// (execution). Entry digesting hashes full payloads — for large batches
	// this is comparable to execution itself, and the two overlap here. The
	// deferred wait releases the workers even if the App panics.
	hasher := newEntryHasher(digests, leaves, cap(entries))
	defer hasher.wait()
	emit := func() {
		i := len(entries) - 1
		hasher.submit(i, &entries[i])
	}

	txIdx := make([]int, 0, len(reqs))
	for _, req := range reqs {
		if req.Governance {
			entries = append(entries, Entry{
				Kind:    KindGovernance,
				Author:  req.Author,
				Payload: append([]byte(nil), req.Body...),
			})
			emit()
			continue
		}
		e := Entry{
			Kind:    KindTransaction,
			Author:  req.Author,
			ReqNo:   req.ReqNo,
			Payload: append([]byte(nil), req.Body...),
		}
		tx := l.store.Begin()
		if err := l.cfg.App.Execute(tx, req.Body); err != nil {
			// Failed transactions are still recorded, with a zero result:
			// the ledger holds clients accountable for what they submitted,
			// not only for what succeeded.
			tx.Abort()
		} else {
			e.Result = tx.WriteSetDigest()
			tx.Commit()
		}
		txIdx = append(txIdx, len(entries))
		entries = append(entries, e)
		emit()
	}
	hasher.wait()
	return entries, txIdx
}

// RollbackTo undoes batch seq and everything after it, restoring the store,
// the history tree, and the checkpoint digest to the state just before
// batch seq executed (Lemma 1). The next executed batch reuses sequence
// number seq. A rollback at or below the pruned boundary fails with a
// wrapped ErrPruned: the batches and marks below a pruned checkpoint no
// longer exist, so the caller must re-sync via state transfer instead.
func (l *Ledger) RollbackTo(seq uint64) error {
	if seq <= l.baseSeq {
		return fmt.Errorf("%w: rollback to %d, boundary %d", ErrPruned, seq, l.baseSeq)
	}
	i := len(l.marks) - 1
	for ; i >= 0; i-- {
		if l.marks[i].seq == seq {
			break
		}
	}
	if i < 0 {
		return fmt.Errorf("%w: %d", ErrUnknownSeq, seq)
	}
	if err := l.store.RollbackTo(seq); err != nil {
		return err
	}
	m := l.marks[i]
	if err := l.hist.Rollback(m.histSize); err != nil {
		// The history tree is only compacted past pruned marks, so a
		// marked boundary is always within the retained region.
		panic(err)
	}
	l.lastCkpt = m.lastCkpt
	l.marks = l.marks[:i]
	for len(l.batches) > 0 && l.batches[len(l.batches)-1].Header.Seq >= seq {
		l.batches = l.batches[:len(l.batches)-1]
	}
	// Checkpoint materializations taken at or beyond the rollback point
	// describe undone state.
	for len(l.ckpts) > 0 && l.ckpts[len(l.ckpts)-1].Seq >= seq {
		l.ckpts = l.ckpts[:len(l.ckpts)-1]
	}
	l.nextSeq = seq
	return nil
}

// PruneMarks drops rollback marks with seq < before; batches that have
// committed globally no longer need to be undoable.
func (l *Ledger) PruneMarks(before uint64) {
	l.store.PruneMarks(before)
	keep := l.marks[:0]
	for _, m := range l.marks {
		if m.seq >= before {
			keep = append(keep, m)
		}
	}
	l.marks = keep
}

// WriteBatches serializes a batch stream: the versioned stream header
// (carrying the execution shard count), then the batch count, then each
// batch's header and entries in the wire codec. Every batch must have been
// built under the same shard count — a mixed stream is a caller bug and is
// rejected rather than silently framed under the first batch's count.
func WriteBatches(w io.Writer, batches []*Batch) error {
	shards := uint32(1)
	for i, b := range batches {
		if i == 0 {
			shards = b.Header.Shards
		} else if b.Header.Shards != shards {
			return fmt.Errorf("%w: batch %d built under %d shards, stream under %d",
				ErrBadBatch, b.Header.Seq, b.Header.Shards, shards)
		}
	}
	ww := wire.NewWriter(w)
	sh := wire.StreamHeader{Version: wire.StreamVCurrent, Shards: shards}
	sh.EncodeTo(ww)
	ww.Uint32(uint32(len(batches)))
	for _, b := range batches {
		b.EncodeTo(ww)
	}
	return ww.Flush()
}

// MaxBatchEntries bounds the entry count accepted when decoding a single
// batch (stream framing and consensus pre-prepares alike).
const MaxBatchEntries = 1 << 20

// EncodeTo writes one batch — header fields, signature, then entries — in
// the deterministic wire codec. It is the framing unit shared by the batch
// stream (WriteBatches) and consensus pre-prepare messages.
func (b *Batch) EncodeTo(w *wire.Writer) {
	b.Header.EncodeTo(w)
	w.Uint32(uint32(len(b.Entries)))
	for i := range b.Entries {
		b.Entries[i].encodeTo(w)
	}
}

// DecodeBatch reads one batch written by EncodeTo. Errors stick to the
// reader; the caller checks r.Err(). Malformed input never panics: entry
// counts are bounded before allocation and every entry decode is validated.
func DecodeBatch(r *wire.Reader) *Batch {
	b := &Batch{}
	b.Header = DecodeHeader(r)
	ne := r.Uint32()
	if r.Err() == nil && ne > MaxBatchEntries {
		r.Fail(fmt.Errorf("%w: %d entries", ErrBadBatch, ne))
		return b
	}
	// Preallocation hints are capped: counts are attacker-controlled, and a
	// tiny hostile stream must not drive a huge allocation before the first
	// decode error surfaces.
	b.Entries = make([]Entry, 0, min(ne, 1024))
	for j := uint32(0); j < ne && r.Err() == nil; j++ {
		b.Entries = append(b.Entries, decodeEntry(r))
	}
	return b
}

// ReadBatches parses a stream produced by WriteBatches, checking that every
// batch header agrees with the stream header's shard count.
func ReadBatches(r io.Reader) ([]*Batch, error) {
	rr := wire.NewReader(r)
	sh, err := wire.DecodeStreamHeader(rr)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadBatch, err)
	}
	n := rr.Uint32()
	const maxBatches = 1 << 24
	if rr.Err() == nil && n > maxBatches {
		return nil, fmt.Errorf("%w: %d batches", ErrBadBatch, n)
	}
	batches := make([]*Batch, 0, min(n, 1024))
	for i := uint32(0); i < n && rr.Err() == nil; i++ {
		b := DecodeBatch(rr)
		if rr.Err() == nil && b.Header.Shards != sh.Shards {
			return nil, fmt.Errorf("%w: batch %d declares %d shards, stream header %d",
				ErrBadBatch, b.Header.Seq, b.Header.Shards, sh.Shards)
		}
		batches = append(batches, b)
	}
	rr.ExpectEOF()
	if err := rr.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadBatch, err)
	}
	return batches, nil
}
