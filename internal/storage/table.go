package storage

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"dynamast/internal/pindex"
	"dynamast/internal/vclock"
)

// runCap bounds a run of the table index: an insert shifts at most this many
// entries, and a run that reaches runCap+1 splits in two.
const runCap = 512

// slabLen is how many records, or imported version cells (see
// Store.newCell), one allocation holds. A table's records and a load's cells
// live as long as the store, so the collector marks one object per slab
// instead of one per row: that is most of the heap, and a shorter mark phase
// is what keeps the update tail flat as scans get faster. The cost is that a
// slab is freed only once none of its records or cells is referenced.
const slabLen = 128

// Table is a row-oriented in-memory table keyed by uint64 primary keys.
// Point lookups read a lock-free hash index (pindex.Map): Record(k, false),
// the Get methods and the hit path of Record(k, true) take no lock. Range
// walks, which all go through walk, read one ordered index over the whole
// table: a directory of sorted runs of at most runCap entries, under one
// RWMutex. Both indexes are written under that lock's write side only, so a
// new key enters both in one critical section.
type Table struct {
	name string
	recs pindex.Map[Record]
	idx  index
}

// index is the table's ordered index. runs are non-empty and ascending: every
// key of runs[i] is below every key of runs[i+1]. Each run has capacity
// runCap+1, so an insert never reallocates one. New records are carved from
// slab under the same lock.
type index struct {
	mu   sync.RWMutex
	runs [][]recRef
	slab []Record // the unused rest of the current record slab
}

// recRef is one index entry.
type recRef struct {
	key uint64
	rec *Record
}

// NewTable returns an empty table with the given name.
func NewTable(name string) *Table { return &Table{name: name} }

// Record returns the record for key, creating it if create is set. Only the
// creation of a new key takes a lock.
func (t *Table) Record(key uint64, create bool) *Record {
	if r := t.recs.Get(key); r != nil || !create {
		return r
	}
	x := &t.idx
	x.mu.Lock()
	defer x.mu.Unlock()
	if r := t.recs.Get(key); r != nil {
		return r
	}
	r := x.insert(key)
	t.recs.Put(key, r)
	return r
}

// seek returns the position of the first entry with key >= k: a run and an
// offset into it, or (len(runs), 0) when every key is below k. The caller
// holds x.mu.
func (x *index) seek(k uint64) (ri, i int) {
	ri, _ = slices.BinarySearchFunc(x.runs, k, func(run []recRef, k uint64) int {
		return cmp.Compare(run[len(run)-1].key, k)
	})
	if ri < len(x.runs) {
		i, _ = slices.BinarySearchFunc(x.runs[ri], k, func(e recRef, k uint64) int {
			return cmp.Compare(e.key, k)
		})
	}
	return ri, i
}

// insert adds a new record for key, which the index does not hold, and
// returns it. A run that overflows splits at its middle, except that an
// insert at either end of a run (the shape of ascending and descending loads)
// leaves the full side whole. The caller holds x.mu.
func (x *index) insert(key uint64) *Record {
	if len(x.slab) == 0 {
		x.slab = make([]Record, slabLen)
	}
	e := recRef{key, &x.slab[0]}
	x.slab = x.slab[1:]
	ri, i := x.seek(key)
	if ri == len(x.runs) {
		if ri == 0 {
			x.runs = append(x.runs, append(make([]recRef, 0, runCap+1), e))
			return e.rec
		}
		ri, i = ri-1, len(x.runs[ri-1]) // above every key: the last run's end
	}
	run := slices.Insert(x.runs[ri], i, e)
	x.runs[ri] = run
	if len(run) <= runCap {
		return e.rec
	}
	at := len(run) / 2
	switch i {
	case len(run) - 1:
		at = runCap
	case 0:
		at = 1
	}
	tail := append(make([]recRef, 0, runCap+1), run[at:]...)
	clear(run[at:]) // drop the moved records' references from the old array
	x.runs[ri] = run[:at]
	x.runs = slices.Insert(x.runs, ri+1, tail)
	return e.rec
}

// Get reads key at snapshot snap.
func (t *Table) Get(key uint64, snap vclock.Vector) ([]byte, bool) {
	r := t.Record(key, false)
	if r == nil {
		return nil, false
	}
	return r.Read(snap)
}

// GetChecked is Get distinguishing a clean miss from one caused by version
// eviction (see Record.ReadChecked); a missing record is a clean miss.
func (t *Table) GetChecked(key uint64, snap vclock.Vector) (data []byte, ok, evicted bool) {
	r := t.Record(key, false)
	if r == nil {
		return nil, false, false
	}
	return r.ReadChecked(snap)
}

// KV is one row produced by a scan.
type KV struct {
	Key   uint64
	Value []byte
}

// batch is what walk copied last: up to walkBatch index entries in key order.
// walk's caller owns it and its emit reads it.
type batch struct {
	n    int
	refs [walkBatch]recRef
}

const walkBatch = 16

// walk is the table's one scan loop. It visits every record with
// lo <= key <= last (lo <= last) in ascending key order: two binary searches
// per end, one in the run directory and one in the run, bound a contiguous
// range of the index; dst is grown once for the entries in it, and the range
// is copied into b, up to walkBatch entries at a time, each batch handed to
// emit, which appends to dst what it makes of b. dst may be nil; the extended
// slice is returned.
//
// Locking contract: inserts shift a run in place and split runs, so the range
// is only valid while the index is read-locked. walk holds the index read
// lock until the copy is done, and emit runs under it: emit may read the
// records but must not call back into the table or into caller-supplied code.
func walk[T any](t *Table, dst []T, lo, last uint64, b *batch, emit func(dst []T) []T) []T {
	x := &t.idx
	x.mu.RLock()
	defer x.mu.RUnlock()
	r0, i0 := x.seek(lo)
	r1, i1 := x.seek(last)
	if r1 < len(x.runs) && x.runs[r1][i1].key == last {
		if i1++; i1 == len(x.runs[r1]) {
			r1, i1 = r1+1, 0
		}
	}
	n := i1 - i0 // the entries from (r0, i0) up to (r1, i1)
	for _, run := range x.runs[r0:r1] {
		n += len(run)
	}
	if n == 0 {
		return dst
	}
	dst = slices.Grow(dst, n)
	for ri, i := r0, i0; n > 0; ri, i = ri+1, 0 {
		seg := x.runs[ri][i:]
		seg = seg[:min(len(seg), n)]
		n -= len(seg)
		for len(seg) > 0 {
			m := copy(b.refs[b.n:], seg)
			seg = seg[m:]
			if b.n += m; b.n == walkBatch {
				dst = emit(dst)
				b.n = 0
			}
		}
	}
	if b.n > 0 {
		dst = emit(dst)
		b.n = 0
	}
	return dst
}

// refs copies the index entries with lo <= key <= last out of the table in
// key order, for callers that read the records, or run caller-supplied code,
// outside the index lock.
func (t *Table) refs(lo, last uint64) []recRef {
	var b batch
	return walk(t, nil, lo, last, &b, func(dst []recRef) []recRef {
		return append(dst, b.refs[:b.n]...)
	})
}

// refsMatching returns the index entries whose keys match accepts, in key
// order. It reads the index in place under its read lock, so the entries
// it skips cost one match call and no copy; match must not use the table.
func (t *Table) refsMatching(match func(key uint64) bool) []recRef {
	x := &t.idx
	x.mu.RLock()
	defer x.mu.RUnlock()
	var out []recRef
	for _, run := range x.runs {
		for _, e := range run {
			if match(e.key) {
				out = append(out, e)
			}
		}
	}
	return out
}

// Scan returns all visible rows with lo <= key < hi at snapshot snap, in
// key order.
func (t *Table) Scan(lo, hi uint64, snap vclock.Vector) []KV {
	out, _ := t.ScanChecked(nil, lo, hi, snap)
	return out
}

// ScanChecked is Scan appending the rows to dst (which may be nil) and also
// reporting whether any skipped record was an eviction miss rather than a
// clean one (see Record.ReadChecked): a row the snapshot should see may have
// been trimmed off its bounded version chain, so the scan result cannot be
// trusted and the caller should retry on a fresher snapshot.
func (t *Table) ScanChecked(dst []KV, lo, hi uint64, snap vclock.Vector) (out []KV, evicted bool) {
	if lo >= hi {
		return dst, false
	}
	var b batch
	out = walk(t, dst, lo, hi-1, &b, func(dst []KV) []KV {
		// Two passes, so the batch's cache misses overlap instead of queueing:
		// every record's head slot, then every head cell. A head the snapshot
		// cannot see falls back to the chain walk.
		var heads [walkBatch]*Write
		for i, e := range b.refs[:b.n] {
			heads[i] = e.rec.v[0].Load()
		}
		for i, e := range b.refs[:b.n] {
			w := heads[i]
			if w == nil || !w.Stamp.VisibleAt(snap) {
				var oldest *Write
				if w, oldest = e.rec.visible(snap); w == nil {
					evicted = evicted || oldest != nil
					continue
				}
			}
			if !w.Deleted {
				dst = append(dst, KV{Key: e.key, Value: w.Data})
			}
		}
		return dst
	})
	return out, evicted
}

// RemoveMatching deletes every record whose key matches and returns how
// many were removed. It holds the index lock, so the point index and the
// ordered index change in one critical section; match runs under it and must
// not use the table. Callers must exclude concurrent readers of the removed
// keys: a lookup racing the removal, or still reading a point-index array
// that a later insert replaced, sees either the record or a clean miss.
func (t *Table) RemoveMatching(match func(key uint64) bool) int {
	x := &t.idx
	x.mu.Lock()
	defer x.mu.Unlock()
	removed := 0
	runs := x.runs[:0]
	for _, run := range x.runs {
		kept := 0
		for i, e := range run {
			if match(e.key) {
				t.recs.Delete(e.key)
				removed++
				continue
			}
			if kept != i {
				run[kept] = e // only a shifted entry is written
			}
			kept++
		}
		clear(run[kept:]) // drop the index's references to the removed records
		if kept > 0 {
			runs = append(runs, run[:kept])
		}
	}
	clear(x.runs[len(runs):])
	x.runs = runs
	return removed
}

// ForEachLatest iterates every record's newest version in key order; used to
// bootstrap a recovering replica from a live one. fn runs outside the table
// locks.
func (t *Table) ForEachLatest(fn func(key uint64, data []byte, stamp Stamp)) {
	for _, e := range t.refs(0, math.MaxUint64) {
		if data, stamp, ok := e.rec.ReadLatest(); ok {
			fn(e.key, data, stamp)
		}
	}
}
