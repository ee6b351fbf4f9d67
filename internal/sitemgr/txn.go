package sitemgr

import (
	"fmt"
	"sync"
	"time"

	"dynamast/internal/obs"
	"dynamast/internal/storage"
	"dynamast/internal/vclock"
	"dynamast/internal/wal"
)

// Txn is a transaction executing locally at one data site under snapshot
// isolation. Update transactions declare their write set at begin (the
// system model assumes write sets are known, via reconnaissance queries if
// necessary); write locks on the full set are held until commit or abort so
// write-write conflicts block rather than abort. Reads observe the
// transaction's begin snapshot plus its own buffered writes.
type Txn struct {
	site  *Site
	snap  vclock.Vector
	refs  []storage.RowRef  // locked write set (sorted, deduplicated)
	recs  []*storage.Record // locked records, parallel to refs
	parts []uint64          // write partitions (writer counts held)

	// writes buffers the mutations, one per row in first-write order. Commit
	// hands the slice itself to the store and the log (its elements become
	// the rows' version cells) and drops it.
	writes   []storage.Write
	finished bool
	readOnly bool

	// scan is the pooled buffer every Scan appends to; Commit/Abort return it.
	scan *[]storage.KV

	// walPublish is the update-log append time measured during Commit;
	// sessions read it to split the commit stage from wal_publish.
	walPublish time.Duration

	// sc is the sampled trace context of the distributed transaction this
	// txn executes (zero when unsampled); Commit records its commit and
	// wal_flush spans under it and registers the commit stamp so refresh
	// application at remote sites can attach to the same trace.
	sc obs.SpanContext

	// Operation counts, priced by the site's cost model.
	nReads   int
	nWrites  int
	nScanned int

	// hostErr poisons the transaction when a read touched a partition this
	// site does not host (partial replication): the read returned a miss the
	// snapshot cannot vouch for, so Commit aborts with ErrNotHosted instead
	// of letting the caller act on it. notHosted accumulates the offending
	// partitions so the session can re-route to a site hosting all of them.
	hostErr   error
	notHosted []uint64

	// staleErr poisons the transaction when a read missed a record that
	// holds only versions newer than the begin snapshot — the version the
	// snapshot could see may have been evicted from the bounded chain, so
	// the miss is unsound. Commit fails with ErrSnapshotTooOld and the
	// session retries on a fresher snapshot.
	staleErr error
}

// Begin starts a transaction whose write set is writeSet (nil/empty for a
// read-only transaction). The transaction's begin snapshot is taken after
// the site version vector dominates minVV — the element-wise max of grant
// vectors and the client's session vector, enforcing both the remastering
// begin-version rule (Algorithm 1) and SSSI session freshness.
//
// For update transactions the site verifies it masters every written
// partition and registers as an in-flight writer on each (release waits for
// these writers); then it acquires the write locks in canonical order, and
// only after lock acquisition takes the begin snapshot (the SI proof's Case
// 1 relies on this ordering).
func (s *Site) Begin(minVV vclock.Vector, writeSet []storage.RowRef) (*Txn, error) {
	t := &Txn{site: s, readOnly: len(writeSet) == 0}
	if s.down.Load() {
		return nil, ErrSiteDown
	}
	if len(minVV) > 0 {
		// Under epochs, a session's own-site freshness never waits for the
		// seal: the self dimension is clamped when the requested sequence is
		// already installed locally (the extended snapshot below serves it).
		s.clock.WaitDominatesEq(s.clampFreshnessWait(minVV))
		// Kill interrupts the clock: the wait may have returned without its
		// freshness condition holding. A down site must never hand out a
		// snapshot (it could violate the session's SSSI guarantee).
		if s.down.Load() {
			return nil, ErrSiteDown
		}
	}
	if t.readOnly {
		t.snap = s.clock.Now()
		s.extendSnap(t.snap)
		return t, nil
	}

	parts := s.writePartitions(writeSet)
	if err := s.enterWriters(parts); err != nil {
		return nil, err
	}
	// LockSet sorts in place; work on a copy so callers may reuse (or even
	// share, read-only) their writeSet slice across transactions.
	refs, recs, err := s.store.LockSet(append([]storage.RowRef(nil), writeSet...))
	if err != nil {
		s.exitWriters(parts)
		return nil, err
	}
	t.refs, t.recs, t.parts = refs, recs, parts
	t.writes = make([]storage.Write, 0, len(refs))
	t.snap = s.clock.Now()
	s.extendSnap(t.snap)
	return t, nil
}

// enterWriters atomically checks mastership of all parts and increments
// their writer counts.
func (s *Site) enterWriters(parts []uint64) error {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.down.Load() {
		return ErrSiteDown
	}
	for _, id := range parts {
		p := s.partition(id)
		if !p.owned {
			return ErrNotMaster
		}
		if p.releasing {
			return ErrReleasing
		}
	}
	for _, id := range parts {
		s.parts[id].writers++
	}
	return nil
}

// exitWriters decrements writer counts and wakes pending releases.
func (s *Site) exitWriters(parts []uint64) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	for _, id := range parts {
		if p := s.parts[id]; p != nil {
			p.writers--
		}
	}
	s.pcond.Broadcast()
}

// Snapshot returns the transaction's begin version vector.
func (t *Txn) Snapshot() vclock.Vector { return t.snap.Clone() }

// Read returns the row's value at the transaction's snapshot, observing the
// transaction's own uncommitted writes first. Under partial replication the
// hosting check and the store read share one hosting read-lock, so a
// concurrent replica drop (flag flip + purge under the write lock) can never
// make a hosted read observe a half-purged partition: either the read sees
// the pre-drop rows, or the check fails and the transaction poisons.
func (t *Txn) Read(ref storage.RowRef) ([]byte, bool) {
	t.nReads++
	if w := t.buffered(ref); w != nil {
		return w.Data, !w.Deleted
	}
	s := t.site
	if h := s.hosting; h != nil {
		part := s.cfg.Partitioner(ref)
		h.mu.RLock()
		if !h.hostsLocked(part) {
			h.mu.RUnlock()
			t.poisonNotHosted(part)
			return nil, false
		}
		data, ok, evicted := s.store.GetChecked(ref, t.snap)
		h.mu.RUnlock()
		if evicted {
			t.poisonStale(ref)
		}
		return data, ok
	}
	data, ok, evicted := s.store.GetChecked(ref, t.snap)
	if evicted {
		t.poisonStale(ref)
	}
	return data, ok
}

// poisonStale marks the transaction failed with ErrSnapshotTooOld: a read of
// ref missed, but only because every retained version of the record is newer
// than the begin snapshot — the visible one may have been evicted.
func (t *Txn) poisonStale(ref storage.RowRef) {
	if t.staleErr == nil {
		t.staleErr = fmt.Errorf("%v: %w", ref, ErrSnapshotTooOld)
	}
}

// SnapshotTooOld reports whether a read poisoned the transaction with
// ErrSnapshotTooOld; sessions abort and retry on a fresher snapshot.
func (t *Txn) SnapshotTooOld() bool { return t.staleErr != nil }

// poisonNotHosted marks the transaction failed with ErrNotHosted for part.
func (t *Txn) poisonNotHosted(part uint64) {
	if t.hostErr == nil {
		t.hostErr = fmt.Errorf("partition %d: %w", part, ErrNotHosted)
	}
	for _, p := range t.notHosted {
		if p == part {
			return
		}
	}
	t.notHosted = append(t.notHosted, part)
}

// NotHostedParts returns the partitions whose reads poisoned the transaction
// (empty unless Commit returned ErrNotHosted). Sessions feed them into the
// read router to pick a site hosting the full set.
func (t *Txn) NotHostedParts() []uint64 { return t.notHosted }

// scanRangeHosted verifies this site hosts every partition a scan of
// [lo, hi) can touch, by probing the partitioner across the key range
// (purged rows are invisible to the scan itself, so the range must be
// checked, not the results). Ranges too large to probe poison outright —
// scan-heavy workloads should keep ranges partition-aligned or use full
// replication. Caller holds the hosting read lock.
func (t *Txn) scanRangeHosted(table string, lo, hi uint64) bool {
	const probeCap = 1 << 16
	s := t.site
	if hi < lo {
		return true
	}
	if hi-lo > probeCap {
		t.poisonNotHosted(s.cfg.Partitioner(storage.RowRef{Table: table, Key: lo}))
		return false
	}
	ok := true
	last, has := uint64(0), false
	for k := lo; k < hi; k++ {
		p := s.cfg.Partitioner(storage.RowRef{Table: table, Key: k})
		if has && p == last {
			continue
		}
		last, has = p, true
		if !t.site.hosting.hostsLocked(p) {
			t.poisonNotHosted(p)
			ok = false
		}
	}
	return ok
}

// scanBufs recycles transactions' scan buffers.
var scanBufs = sync.Pool{New: func() any { return new([]storage.KV) }}

// Scan returns the visible rows of table with lo <= key < hi at the
// transaction's snapshot. Buffered writes are not merged into scans (no
// workload in the evaluation scans its own write set).
// The rows live in a buffer the transaction owns: valid until it commits or
// aborts (later scans do not disturb them), zeroed afterwards; copy to retain.
func (t *Txn) Scan(table string, lo, hi uint64) []storage.KV {
	tb := t.site.store.Table(table)
	if tb == nil {
		return nil
	}
	if h := t.site.hosting; h != nil {
		h.mu.RLock()
		defer h.mu.RUnlock()
		if !t.scanRangeHosted(table, lo, hi) {
			return nil
		}
	}
	if t.scan == nil {
		t.scan = scanBufs.Get().(*[]storage.KV)
	}
	from := len(*t.scan)
	buf, evicted := tb.ScanChecked(*t.scan, lo, hi, t.snap)
	*t.scan = buf
	if evicted {
		t.poisonStale(storage.RowRef{Table: table, Key: lo})
	}
	t.nScanned += len(buf) - from
	return buf[from:len(buf):len(buf)]
}

// releaseScan clears the transaction's scan rows and recycles their buffer.
func (t *Txn) releaseScan() {
	if t.scan == nil {
		return
	}
	buf := *t.scan
	clear(buf)
	if cap(buf) <= 1<<13 { // one some huge scan grew past 256 KB is dropped instead
		*t.scan = buf[:0]
		scanBufs.Put(t.scan)
	}
	t.scan = nil
}

// Write buffers an update to ref, which must be in the declared write set.
func (t *Txn) Write(ref storage.RowRef, data []byte) error {
	return t.bufferWrite(storage.Write{Ref: ref, Data: data})
}

func (t *Txn) bufferWrite(w storage.Write) error {
	if t.readOnly {
		return fmt.Errorf("sitemgr: write in read-only transaction")
	}
	if t.finished {
		return fmt.Errorf("sitemgr: write after commit/abort")
	}
	if !t.inWriteSet(w.Ref) {
		return fmt.Errorf("sitemgr: %v not in declared write set", w.Ref)
	}
	if b := t.buffered(w.Ref); b != nil {
		*b = w
	} else {
		t.writes = append(t.writes, w)
	}
	t.nWrites++
	return nil
}

// buffered returns the transaction's own pending write to ref, or nil.
func (t *Txn) buffered(ref storage.RowRef) *storage.Write {
	for i := range t.writes {
		if t.writes[i].Ref == ref {
			return &t.writes[i]
		}
	}
	return nil
}

// Cost prices the transaction's operations under the site's cost model;
// systems charge it on the site's execution pool around the stored
// procedure.
func (t *Txn) Cost() time.Duration {
	cm := t.site.cfg.Costs
	if cm.Zero() {
		return 0
	}
	return cm.TxnBase +
		time.Duration(t.nReads)*cm.PerRead +
		time.Duration(t.nWrites)*cm.PerWrite +
		time.Duration(t.nScanned)*cm.PerScanKey
}

func (t *Txn) inWriteSet(ref storage.RowRef) bool {
	for _, r := range t.refs {
		if r == ref {
			return true
		}
	}
	return false
}

// Commit makes the transaction's writes durable and visible and returns its
// commit timestamp (transaction version vector). The sequence follows
// §V-A2: the site atomically (under a short commit critical section)
// allocates the next local commit sequence number, stamps and installs the
// versions while still holding write locks, appends the write set and tvv
// to the site's log (redo + propagation), and publishes visibility by
// advancing the site version vector. The critical section guarantees the
// site's log carries its commits in commit order — the per-origin FIFO that
// the update application rule's svv[i] == tvv[i]-1 clause relies on.
func (t *Txn) Commit() (vclock.Vector, error) {
	if t.finished {
		return nil, fmt.Errorf("sitemgr: commit after finish")
	}
	t.finished = true
	t.releaseScan()
	s := t.site
	if err := t.hostErr; err != nil || t.staleErr != nil {
		// A read touched a non-hosted partition, or missed a record whose
		// visible version may have been evicted from the bounded chain: the
		// results handed to the caller's logic were unsound (silent misses),
		// so nothing may commit. Both are retryable — the session re-routes
		// within the replica set, or re-begins on a fresher snapshot.
		if err == nil {
			err = t.staleErr
		}
		if !t.readOnly {
			storage.UnlockAll(t.recs)
			s.exitWriters(t.parts)
			s.ob.aborts.Inc()
		}
		return nil, err
	}
	if t.readOnly {
		return t.snap, nil
	}
	if s.down.Load() {
		// The site crashed between begin and commit: release everything and
		// fail with the retryable error. Nothing was installed or logged, so
		// the transaction is invisible — safe to re-execute elsewhere.
		storage.UnlockAll(t.recs)
		s.exitWriters(t.parts)
		s.ob.aborts.Inc()
		return nil, ErrSiteDown
	}

	writes := t.writes
	t.writes = nil

	start := time.Now()
	if s.epochOn() {
		return t.commitEpoch(writes, start)
	}
	s.commitMu.Lock()
	seq := s.nextSeq.Add(1)
	tvv := t.snap.Clone()
	tvv[s.id] = seq
	var commitID uint64
	if t.sc.Sampled() {
		// Register the commit stamp BEFORE the log append publishes the
		// entry: a replica can apply the refresh the moment the entry is
		// readable — ahead of this goroutine resuming — and a lookup against
		// an unregistered stamp silently drops the refresh_apply span.
		commitID = obs.NewSpanID()
		s.spans.RegisterStamp(s.id, seq, obs.SpanContext{Trace: t.sc.Trace, Span: commitID})
	}
	s.store.Apply(storage.Stamp{Origin: s.id, Seq: seq}, writes)
	walStart := time.Now()
	_, err := s.log.Append(wal.Entry{
		Kind:   wal.KindUpdate,
		Origin: s.id,
		TVV:    tvv,
		Writes: writes,
	})
	t.walPublish = time.Since(walStart)
	if err == nil {
		s.clock.Advance(s.id, seq)
	}
	s.commitMu.Unlock()

	storage.UnlockAll(t.recs)
	if err == nil {
		s.bumpWatermarks(writes, tvv)
	}
	s.exitWriters(t.parts)
	if err != nil {
		// The log only rejects appends after shutdown; the commit is
		// abandoned (its versions are unreachable: visibility was never
		// published).
		return nil, err
	}
	s.commits.Add(1)
	s.ob.commits.Inc()
	commitDur := time.Since(start)
	s.ob.commitDur.ObserveDuration(commitDur)
	if t.sc.Sampled() {
		// Record the commit critical section and its WAL append as spans
		// under the commit span id the stamp was registered with above: when
		// remote sites apply this commit as a refresh transaction they look
		// the stamp up and attach their refresh_apply spans under the commit
		// span, closing the trace's cross-site causal edge.
		s.spans.Record(obs.Span{
			Trace: t.sc.Trace, ID: commitID, Parent: t.sc.Span,
			Name: "commit", Site: s.id, Start: start, Dur: commitDur,
		})
		s.spans.Record(obs.Span{
			Trace: t.sc.Trace, Parent: commitID,
			Name: "wal_flush", Site: s.id, Start: walStart, Dur: t.walPublish,
		})
	}
	return tvv, nil
}

// commitEpoch is Commit under epoch-based group commit (epoch.go): the
// critical section installs the versions and buffers the member — no WAL
// append and no svv advance per transaction; the sealer pays both once per
// epoch. File-backed sites wait for the covering seal before acking
// (durability, measured as the WAL-publish stage); in-memory sites ack
// immediately and the seal publishes replica visibility within one interval.
func (t *Txn) commitEpoch(writes []storage.Write, start time.Time) (vclock.Vector, error) {
	s := t.site
	s.commitMu.Lock()
	if s.down.Load() {
		// Kill's seal barrier passed (or is about to): nothing may enter the
		// buffer once the site is down, or an acked commit could be
		// stranded unsealed in a dead site.
		s.commitMu.Unlock()
		storage.UnlockAll(t.recs)
		s.exitWriters(t.parts)
		s.ob.aborts.Inc()
		return nil, ErrSiteDown
	}
	s.ep.mu.Lock()
	err := s.ep.sealErr
	s.ep.mu.Unlock()
	if err != nil {
		// A seal append failed (log closed/poisoned): the commit path is
		// dead, abandon before installing anything.
		s.commitMu.Unlock()
		storage.UnlockAll(t.recs)
		s.exitWriters(t.parts)
		return nil, err
	}
	seq := s.nextSeq.Add(1)
	tvv := t.snap.Clone()
	tvv[s.id] = seq
	var commitID uint64
	if t.sc.Sampled() {
		// Register the commit stamp BEFORE the member enters the epoch
		// buffer: a concurrent seal can ship it immediately, and a replica
		// applying the epoch against an unregistered stamp would silently
		// drop the refresh_apply span.
		commitID = obs.NewSpanID()
		s.spans.RegisterStamp(s.id, seq, obs.SpanContext{Trace: t.sc.Trace, Span: commitID})
	}
	s.store.Apply(storage.Stamp{Origin: s.id, Seq: seq}, writes)
	s.bufferEpochTxn(seq, tvv, start, writes)
	s.commitMu.Unlock()

	storage.UnlockAll(t.recs)
	s.bumpWatermarks(writes, tvv)
	s.exitWriters(t.parts)

	// Group commit: the ack waits for the seal that publishes this commit —
	// the log append (and, file-backed, its durable flush) covers the whole
	// epoch at once. Acking earlier would let a fresh session observe a
	// cluster that never shows an already-acknowledged write; waiting keeps
	// the pre-epoch guarantee that an acked commit is in the log. The wait
	// is bounded by the seal interval and amortized across every member.
	walStart := time.Now()
	if err := s.waitSealed(seq); err != nil {
		// Seals only fail after shutdown poisons the log; the commit is
		// abandoned (visibility was never published to replicas).
		t.walPublish = time.Since(walStart)
		return nil, err
	}
	t.walPublish = time.Since(walStart)
	s.commits.Add(1)
	s.ob.commits.Inc()
	commitDur := time.Since(start)
	s.ob.commitDur.ObserveDuration(commitDur)
	if t.sc.Sampled() {
		s.spans.Record(obs.Span{
			Trace: t.sc.Trace, ID: commitID, Parent: t.sc.Span,
			Name: "commit", Site: s.id, Start: start, Dur: commitDur,
		})
		s.spans.Record(obs.Span{
			Trace: t.sc.Trace, Parent: commitID,
			Name: "wal_flush", Site: s.id, Start: start, Dur: t.walPublish,
		})
	}
	return tvv, nil
}

// WALPublish returns the update-log append time of a committed
// transaction (zero before Commit and for read-only transactions).
func (t *Txn) WALPublish() time.Duration { return t.walPublish }

// SetSpan attaches a sampled trace context (the distributed transaction's
// root span) under which Commit records its commit and wal_flush spans.
func (t *Txn) SetSpan(sc obs.SpanContext) { t.sc = sc }

// Abort releases the transaction's locks without installing writes.
func (t *Txn) Abort() {
	if t.finished {
		return
	}
	t.finished = true
	t.releaseScan()
	if t.readOnly {
		return
	}
	storage.UnlockAll(t.recs)
	t.site.exitWriters(t.parts)
	t.site.ob.aborts.Inc()
}

// ReadLocal serves a single-row read at the site's current snapshot; used
// by partitioned systems for remote reads.
func (s *Site) ReadLocal(ref storage.RowRef) ([]byte, bool) {
	snap := s.clock.Now()
	s.extendSnap(snap)
	return s.store.Get(ref, snap)
}

// ScanLocal serves a range scan at the site's current snapshot.
func (s *Site) ScanLocal(table string, lo, hi uint64) []storage.KV {
	tb := s.store.Table(table)
	if tb == nil {
		return nil
	}
	snap := s.clock.Now()
	s.extendSnap(snap)
	return tb.Scan(lo, hi, snap)
}
