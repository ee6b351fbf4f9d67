package storage

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"dynamast/internal/vclock"
)

// DefaultMaxVersions is the per-record version chain cap. The paper keeps
// four versions of every record, a setting its authors chose empirically.
const DefaultMaxVersions = 4

// Store is one data site's database: a set of named tables plus the store-
// wide MVCC configuration.
type Store struct {
	maxVersions int

	// tables is the table directory, copied on write: lookups load it and
	// take no lock. mu serialises table creators.
	tables atomic.Pointer[map[string]*Table]
	mu     sync.Mutex

	cellMu sync.Mutex
	cells  []Write // the unused rest of the current import cell slab
}

// NewStore returns an empty store keeping maxVersions versions per record
// (DefaultMaxVersions if 0; a cap beyond MaxVersionCap panics).
func NewStore(maxVersions int) *Store {
	if maxVersions == 0 {
		maxVersions = DefaultMaxVersions
	}
	if maxVersions < 0 || maxVersions > MaxVersionCap {
		panic(fmt.Sprintf("storage: version cap %d outside [1, %d]", maxVersions, MaxVersionCap))
	}
	s := &Store{maxVersions: maxVersions}
	s.tables.Store(&map[string]*Table{})
	return s
}

// CreateTable creates (or returns the existing) table with the given name.
// Apply and LoadRow call it per row, and the table exists for all but the
// first of them, so that path takes no lock.
func (s *Store) CreateTable(name string) *Table {
	if t := s.Table(name); t != nil {
		return t
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.tables.Load()
	if t, ok := old[name]; ok {
		return t
	}
	t := NewTable(name)
	tables := maps.Clone(old)
	tables[name] = t
	s.tables.Store(&tables)
	return t
}

// Table returns the named table, or nil if it does not exist.
func (s *Store) Table(name string) *Table { return (*s.tables.Load())[name] }

// TableNames returns the names of all tables in sorted order.
func (s *Store) TableNames() []string {
	tables := *s.tables.Load()
	names := make([]string, 0, len(tables))
	for n := range tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RowRef names one row: a table plus a primary key.
type RowRef struct {
	Table string
	Key   uint64
}

// String renders the reference as table/key.
func (r RowRef) String() string { return fmt.Sprintf("%s/%d", r.Table, r.Key) }

// Compare orders row references by (table, key); the canonical lock
// acquisition order that makes concurrent multi-record transactions
// deadlock-free.
func (r RowRef) Compare(o RowRef) int {
	switch {
	case r.Table < o.Table:
		return -1
	case r.Table > o.Table:
		return 1
	case r.Key < o.Key:
		return -1
	case r.Key > o.Key:
		return 1
	}
	return 0
}

// SortRefs sorts refs into canonical lock order and removes duplicates,
// returning the (possibly shortened) slice.
func SortRefs(refs []RowRef) []RowRef {
	if len(refs) < 2 {
		return refs
	}
	slices.SortFunc(refs, RowRef.Compare)
	out := refs[:0]
	for i, r := range refs {
		if i == 0 || r.Compare(refs[i-1]) != 0 {
			out = append(out, r)
		}
	}
	return out
}

// LockSet acquires write locks on every referenced record in canonical
// order, creating missing records, and returns them in the same order as
// the (sorted, deduplicated) refs. Callers release with UnlockAll. The
// returned refs slice is the deduplicated lock set.
func (s *Store) LockSet(refs []RowRef) ([]RowRef, []*Record, error) {
	refs = SortRefs(refs)
	recs := make([]*Record, 0, len(refs))
	for _, ref := range refs {
		t := s.Table(ref.Table)
		if t == nil {
			UnlockAll(recs)
			return nil, nil, fmt.Errorf("storage: no such table %q", ref.Table)
		}
		r := t.Record(ref.Key, true)
		r.Lock()
		recs = append(recs, r)
	}
	return refs, recs, nil
}

// UnlockAll releases the given records' write locks.
func UnlockAll(recs []*Record) {
	for _, r := range recs {
		r.Unlock()
	}
}

// Write is one row mutation carried by a committed transaction (and by its
// refresh transactions at the other sites). Once applied it is also the
// row's version cell: Stamp is the commit that produced it, set by Apply (or
// by the log its entry went through, see wal.Log.Append) and never encoded.
type Write struct {
	Ref     RowRef
	Data    []byte
	Deleted bool
	Stamp   Stamp
}

// Apply installs a committed write set with the given stamp. Local commits
// call it while holding the records' write locks; the refresh applier calls
// it without (application order is serialized per partition by the
// replication manager).
//
// Apply retains writes: each element becomes its record's newest version
// cell, published by address, so the caller must not touch the slice again.
// Elements already carrying stamp (the same commit reaching another replica
// through a shared log entry) are published unwritten. One slice handed to two
// commits is a caller bug; tests panic on it (a debug assertion).
func (s *Store) Apply(stamp Stamp, writes []Write) {
	var t *Table // consecutive writes to one table look it up once
	for i := range writes {
		w := &writes[i]
		if w.Stamp != stamp {
			if w.Stamp != (Stamp{}) && testing.Testing() {
				panic(fmt.Sprintf("storage: Apply(%+v) of %v already published under %+v", stamp, w.Ref, w.Stamp))
			}
			w.Stamp = stamp
		}
		if t == nil || t.name != w.Ref.Table {
			t = s.CreateTable(w.Ref.Table)
		}
		t.Record(w.Ref.Key, true).install(w, s.maxVersions)
	}
}

// Get reads one row at a snapshot.
func (s *Store) Get(ref RowRef, snap vclock.Vector) ([]byte, bool) {
	t := s.Table(ref.Table)
	if t == nil {
		return nil, false
	}
	return t.Get(ref.Key, snap)
}

// GetChecked is Get distinguishing a clean miss from one caused by version
// eviction (see Record.ReadChecked).
func (s *Store) GetChecked(ref RowRef, snap vclock.Vector) (data []byte, ok, evicted bool) {
	t := s.Table(ref.Table)
	if t == nil {
		return nil, false, false
	}
	return t.GetChecked(ref.Key, snap)
}

// PurgeMatching removes every record whose reference matches, across all
// tables, and returns how many were dropped. Partial replication uses it to
// evict a partition's rows when a site drops out of the replica set; the
// caller is responsible for excluding concurrent readers of the purged rows
// (the site manager holds its hosting lock across check-and-read).
func (s *Store) PurgeMatching(match func(RowRef) bool) int {
	n := 0
	for name, t := range *s.tables.Load() {
		n += t.RemoveMatching(func(key uint64) bool {
			return match(RowRef{Table: name, Key: key})
		})
	}
	return n
}
