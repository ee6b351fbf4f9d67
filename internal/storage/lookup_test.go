package storage

import (
	"testing"
	"time"

	"dynamast/internal/vclock"
)

// finishes reports whether f returns within a second.
func finishes(f func()) bool {
	done := make(chan struct{})
	go func() {
		f()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(time.Second):
		return false
	}
}

// TestPointLookupsTakeNoLock pins the lock-free lookup path: while the
// store's creator mutex and the table's index lock are held, a read, a
// lookup and an apply over existing keys still finish.
func TestPointLookupsTakeNoLock(t *testing.T) {
	s := NewStore(0)
	s.Apply(Stamp{0, 1}, []Write{{Ref: RowRef{"t", 1}, Data: []byte("a")}, {Ref: RowRef{"t", 2}, Data: []byte("b")}})
	tb := s.Table("t")
	s.mu.Lock()
	defer s.mu.Unlock()
	tb.idx.mu.Lock()
	defer tb.idx.mu.Unlock()

	if !finishes(func() {
		if d, ok := s.Get(RowRef{"t", 1}, vclock.Vector{1}); !ok || string(d) != "a" {
			t.Errorf("Get = %q, %v", d, ok)
		}
	}) {
		t.Fatal("Store.Get blocked on a table lock")
	}
	if !finishes(func() {
		if tb.Record(2, false) == nil || tb.Record(2, true) == nil {
			t.Error("Record(2) missed an existing key")
		}
	}) {
		t.Fatal("Table.Record blocked on a table lock")
	}
	if !finishes(func() {
		s.Apply(Stamp{0, 2}, []Write{{Ref: RowRef{"t", 1}, Data: []byte("c")}, {Ref: RowRef{"t", 2}, Data: []byte("d")}})
	}) {
		t.Fatal("Store.Apply over existing keys blocked on a table lock")
	}
}

// A warm lookup, read or apply over existing keys allocates nothing: Apply
// keeps the caller's write set as the version cells.
func TestPointLookupsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := NewStore(0)
	for k := uint64(0); k < 1000; k++ {
		s.Apply(Stamp{0, 1}, []Write{{Ref: RowRef{"t", k}, Data: []byte{1}}})
	}
	tb := s.Table("t")
	snap := vclock.Vector{1}
	k := uint64(0)
	if n := testing.AllocsPerRun(100, func() {
		k = (k + 7) % 1000
		if tb.Record(k, false) == nil {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Errorf("Table.Record made %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		k = (k + 7) % 1000
		if _, ok := s.Get(RowRef{"t", k}, snap); !ok {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Errorf("Store.Get made %v allocations, want 0", n)
	}
	const runs = 100
	sets := make([][]Write, runs+1) // AllocsPerRun calls f once more to warm up
	for i := range sets {
		k := uint64(3 * i)
		sets[i] = []Write{{Ref: RowRef{"t", k}, Data: []byte{2}}, {Ref: RowRef{"t", k + 1}, Data: []byte{2}}}
	}
	seq := 0
	if n := testing.AllocsPerRun(runs, func() {
		s.Apply(Stamp{0, uint64(seq + 2)}, sets[seq])
		seq++
	}); n != 0 {
		t.Errorf("Store.Apply made %v allocations, want 0", n)
	}
}

// The point index's footprint is bounded: a 100k-key load fits in 2^17
// slots (2 MB), and removing and re-adding the same 10k keys, as partial
// replication does when a site drops and regains a partition, keeps the slot
// array within 4x the live rows.
func TestPointIndexFootprint(t *testing.T) {
	tb := NewTable("t")
	for k := uint64(0); k < 100_000; k++ {
		tb.Record(k, true)
	}
	if n := tb.recs.Slots(); n > 1<<17 {
		t.Fatalf("100k keys take %d slots, want at most %d", n, 1<<17)
	}

	churn := NewTable("c")
	const live = 10_000
	for round := 0; round < 100; round++ {
		for k := uint64(0); k < live; k++ {
			churn.Record(k, true)
		}
		if n := churn.recs.Slots(); n > 4*live {
			t.Fatalf("round %d: %d slots for %d live keys", round, n, live)
		}
		if n := churn.RemoveMatching(func(uint64) bool { return true }); n != live {
			t.Fatalf("round %d: removed %d keys, want %d", round, n, live)
		}
	}
}
