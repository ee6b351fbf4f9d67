package storage

import (
	"math"
	"slices"
	"sync"

	"dynamast/internal/vclock"
)

const tableShards = 16

// Table is a row-oriented in-memory table keyed by uint64 primary keys.
// Records are sharded by key. A shard holds a map for point lookups and an
// ordered index — its keys ascending and, parallel to them, the records —
// for range walks, which all go through walk.
type Table struct {
	name   string
	shards [tableShards]tableShard
}

type tableShard struct {
	mu      sync.RWMutex
	recs    map[uint64]*Record // point lookups only
	keys    []uint64           // sorted; maintained on insert
	ordered []*Record          // ordered[i] is the record of keys[i]
}

// NewTable returns an empty table with the given name.
func NewTable(name string) *Table {
	t := &Table{name: name}
	for i := range t.shards {
		t.shards[i].recs = make(map[uint64]*Record)
	}
	return t
}

// Name returns the table's name.
func (t *Table) Name() string { return t.name }

func (t *Table) shard(key uint64) *tableShard {
	return &t.shards[key%tableShards]
}

// Record returns the record for key, creating it if create is set.
func (t *Table) Record(key uint64, create bool) *Record {
	s := t.shard(key)
	s.mu.RLock()
	r := s.recs[key]
	s.mu.RUnlock()
	if r != nil || !create {
		return r
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r = s.recs[key]; r != nil {
		return r
	}
	r = newRecord()
	s.recs[key] = r
	i, _ := slices.BinarySearch(s.keys, key)
	s.keys = slices.Insert(s.keys, i, key)
	s.ordered = slices.Insert(s.ordered, i, r)
	return r
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

// GetLatest reads the newest committed version of key.
func (t *Table) GetLatest(key uint64) ([]byte, Stamp, bool) {
	r := t.Record(key, false)
	if r == nil {
		return nil, Stamp{}, false
	}
	return r.ReadLatest()
}

// KV is one row produced by a scan.
type KV struct {
	Key   uint64
	Value []byte
}

// batch is what walk merged last: up to walkBatch index entries in key order.
// walk's caller owns it and its emit reads it.
type batch struct {
	n    int
	refs [walkBatch]recRef
}

const walkBatch = 16

// walk is the table's one scan loop. It visits every record with
// lo <= key <= last in ascending key order: two binary searches find each
// shard's run, dst is grown once for the records the runs hold, and a merge
// of the runs fills b with the records, up to walkBatch at a time, and calls
// emit, which appends to dst what it makes of b. dst may be nil; the extended
// slice is returned.
//
// Locking contract: inserts shift a shard's index in place, so a run is only
// valid while its shard is read-locked. walk takes every shard's read lock
// (in index order; writers hold one shard lock at a time, so this cannot
// deadlock) and holds them all until the merge is done. emit runs under
// those locks: it may read the records but must not call back into the table
// or into caller-supplied code.
func walk[T any](t *Table, dst []T, lo, last uint64, b *batch, emit func(dst []T) []T) []T {
	var (
		keys    [tableShards][]uint64  // what is left of each live run
		recs    [tableShards][]*Record // parallel to keys
		head    [tableShards]uint64    // keys[i][0], side by side for the merge
		live, n int
	)
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		start, _ := slices.BinarySearch(s.keys, lo)
		end, found := slices.BinarySearch(s.keys, last)
		if found {
			end++
		}
		if start < end {
			keys[live], recs[live], head[live] = s.keys[start:end], s.ordered[start:end], s.keys[start]
			live++
			n += end - start
		}
	}
	defer func() {
		for i := range t.shards {
			t.shards[i].mu.RUnlock()
		}
	}()
	dst = slices.Grow(dst, n)
	for live > 0 {
		m := 0
		for i := 1; i < live; i++ {
			if head[i] < head[m] {
				m = i
			}
		}
		b.refs[b.n] = recRef{head[m], recs[m][0]}
		b.n++
		if keys[m], recs[m] = keys[m][1:], recs[m][1:]; len(keys[m]) > 0 {
			head[m] = keys[m][0]
		} else {
			live--
			keys[m], recs[m], head[m] = keys[live], recs[live], head[live]
		}
		if b.n == walkBatch || live == 0 {
			dst = emit(dst)
			b.n = 0
		}
	}
	return dst
}

// recRef is one index entry.
type recRef struct {
	key uint64
	rec *Record
}

// refs copies the index entries with lo <= key <= last out of the table in
// key order, for callers that read the records, or run caller-supplied code,
// outside the shard locks.
func (t *Table) refs(lo, last uint64) []recRef {
	var b batch
	return walk(t, nil, lo, last, &b, func(dst []recRef) []recRef {
		return append(dst, b.refs[:b.n]...)
	})
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

// ScanKeys calls fn for each visible row in [lo, hi) in key order; fn
// returning false stops the scan early. fn runs outside every shard lock, so
// it may use the table. The returned evicted flag is ScanChecked's, over the
// rows visited.
func (t *Table) ScanKeys(lo, hi uint64, snap vclock.Vector, fn func(key uint64, data []byte) bool) (evicted bool) {
	if lo >= hi {
		return false
	}
	for _, e := range t.refs(lo, hi-1) {
		data, ok, ev := e.rec.ReadChecked(snap)
		evicted = evicted || ev
		if ok && !fn(e.key, data) {
			break
		}
	}
	return evicted
}

// Keys returns the number of records (of any visibility) in the table.
func (t *Table) Keys() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		n += len(s.keys)
		s.mu.RUnlock()
	}
	return n
}

// RemoveMatching deletes every record whose key matches and returns how
// many were removed. Callers must exclude concurrent readers of the removed
// keys; lookups racing the removal see either the record or a clean miss.
func (t *Table) RemoveMatching(match func(key uint64) bool) int {
	removed := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		kept := 0
		for j, k := range s.keys {
			if match(k) {
				delete(s.recs, k)
				removed++
				continue
			}
			s.keys[kept], s.ordered[kept] = k, s.ordered[j]
			kept++
		}
		clear(s.ordered[kept:]) // drop the removed records' last references
		s.keys, s.ordered = s.keys[:kept], s.ordered[:kept]
		s.mu.Unlock()
	}
	return removed
}

// ForEachLatest iterates every record's newest version in key order; used to
// bootstrap a recovering replica from a live one. fn runs outside the shard
// locks.
func (t *Table) ForEachLatest(fn func(key uint64, data []byte, stamp Stamp)) {
	for _, e := range t.refs(0, math.MaxUint64) {
		if data, stamp, ok := e.rec.ReadLatest(); ok {
			fn(e.key, data, stamp)
		}
	}
}
