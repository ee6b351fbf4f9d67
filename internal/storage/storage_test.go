package storage

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"dynamast/internal/vclock"
)

func TestStampVisibleAt(t *testing.T) {
	snap := vclock.Vector{3, 0, 1}
	cases := []struct {
		s    Stamp
		want bool
	}{
		{Stamp{0, 3}, true},
		{Stamp{0, 4}, false},
		{Stamp{1, 1}, false},
		{Stamp{2, 1}, true},
		{Stamp{-1, 0}, false},
		{Stamp{5, 0}, false},
	}
	for i, c := range cases {
		if got := c.s.VisibleAt(snap); got != c.want {
			t.Errorf("case %d: %+v.VisibleAt(%v) = %v, want %v", i, c.s, snap, got, c.want)
		}
	}
}

func TestRecordReadSnapshots(t *testing.T) {
	r := new(Record)
	install(r, Stamp{0, 1}, []byte("v1"), false, 4)
	install(r, Stamp{0, 2}, []byte("v2"), false, 4)
	install(r, Stamp{1, 1}, []byte("v3"), false, 4)

	if _, ok := r.Read(vclock.Vector{0, 0}); ok {
		t.Error("empty snapshot saw data")
	}
	if d, ok := r.Read(vclock.Vector{1, 0}); !ok || string(d) != "v1" {
		t.Errorf("snap [1 0]: got %q %v", d, ok)
	}
	if d, ok := r.Read(vclock.Vector{2, 0}); !ok || string(d) != "v2" {
		t.Errorf("snap [2 0]: got %q %v", d, ok)
	}
	if d, ok := r.Read(vclock.Vector{2, 1}); !ok || string(d) != "v3" {
		t.Errorf("snap [2 1]: got %q %v", d, ok)
	}
	// A snapshot that saw site-1's update but lags site-0: newest visible
	// version wins in chain order.
	if d, ok := r.Read(vclock.Vector{1, 1}); !ok || string(d) != "v3" {
		t.Errorf("snap [1 1]: got %q %v", d, ok)
	}
}

func TestRecordTombstone(t *testing.T) {
	r := new(Record)
	install(r, Stamp{0, 1}, []byte("v1"), false, 4)
	install(r, Stamp{0, 2}, nil, true, 4)
	if d, ok := r.Read(vclock.Vector{1}); !ok || string(d) != "v1" {
		t.Errorf("pre-delete snapshot: got %q %v", d, ok)
	}
	if _, ok := r.Read(vclock.Vector{2}); ok {
		t.Error("deleted row visible")
	}
	if _, _, ok := r.ReadLatest(); ok {
		t.Error("ReadLatest returned tombstone")
	}
}

func TestRecordVersionCap(t *testing.T) {
	r := new(Record)
	for seq := uint64(1); seq <= 10; seq++ {
		install(r, Stamp{0, seq}, []byte{byte(seq)}, false, 4)
	}
	if n := r.VersionCount(); n != 4 {
		t.Fatalf("VersionCount = %d, want 4", n)
	}
	// Oldest retained version is seq 7; snapshots older than that see
	// nothing (the price of bounded chains).
	if _, ok := r.Read(vclock.Vector{6}); ok {
		t.Error("GC'd version still visible")
	}
	if d, ok := r.Read(vclock.Vector{7}); !ok || d[0] != 7 {
		t.Errorf("oldest retained: got %v %v", d, ok)
	}
}

func TestRecordLockMutualExclusion(t *testing.T) {
	r := new(Record)
	r.Lock()
	if r.lock.TryLock() {
		t.Fatal("TryLock succeeded while held")
	}
	released := make(chan struct{})
	go func() {
		r.Lock()
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("second Lock acquired while held")
	case <-time.After(10 * time.Millisecond):
	}
	r.Unlock()
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Lock never woke")
	}
	r.Unlock()
	if !r.lock.TryLock() {
		t.Fatal("TryLock failed on free lock")
	}
	r.Unlock()
}

func TestRecordCrossGoroutineUnlock(t *testing.T) {
	r := new(Record)
	r.Lock()
	done := make(chan struct{})
	go func() {
		r.Unlock() // a commit path may release from another goroutine
		close(done)
	}()
	<-done
	if !r.lock.TryLock() {
		t.Fatal("lock not released")
	}
	r.Unlock()
}

func TestTableGetMissing(t *testing.T) {
	tb := NewTable("t")
	if _, ok := tb.Get(42, vclock.Vector{1}); ok {
		t.Fatal("missing key returned data")
	}
	if r := tb.Record(42, false); r != nil {
		t.Fatal("Record(create=false) created a record")
	}
}

func TestTableScanOrderAndBounds(t *testing.T) {
	tb := NewTable("t")
	snap := vclock.Vector{1}
	for _, k := range []uint64{5, 1, 9, 3, 7, 100} {
		install(tb.Record(k, true), Stamp{0, 1}, []byte{byte(k)}, false, 4)
	}
	got := tb.Scan(3, 10, snap)
	want := []uint64{3, 5, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("Scan returned %d rows, want %d", len(got), len(want))
	}
	for i, kv := range got {
		if kv.Key != want[i] {
			t.Errorf("row %d key = %d, want %d", i, kv.Key, want[i])
		}
	}
}

func TestTableScanSnapshotFilter(t *testing.T) {
	tb := NewTable("t")
	install(tb.Record(1, true), Stamp{0, 1}, []byte("a"), false, 4)
	install(tb.Record(2, true), Stamp{0, 2}, []byte("b"), false, 4)
	got := tb.Scan(0, 10, vclock.Vector{1})
	if len(got) != 1 || got[0].Key != 1 {
		t.Fatalf("snapshot scan = %+v", got)
	}
}

func TestTableScanKeysEarlyStop(t *testing.T) {
	tb := NewTable("t")
	for k := uint64(0); k < 50; k++ {
		install(tb.Record(k, true), Stamp{0, 1}, []byte{1}, false, 4)
	}
	n := 0
	tb.ScanKeys(0, 50, vclock.Vector{1}, func(uint64, []byte) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("early stop visited %d rows", n)
	}
}

func TestTableForEachLatest(t *testing.T) {
	tb := NewTable("t")
	install(tb.Record(1, true), Stamp{0, 1}, []byte("old"), false, 4)
	install(tb.Record(1, true), Stamp{0, 2}, []byte("new"), false, 4)
	install(tb.Record(2, true), Stamp{1, 1}, nil, true, 4) // tombstone skipped
	var seen []string
	tb.ForEachLatest(func(key uint64, data []byte, stamp Stamp) {
		seen = append(seen, fmt.Sprintf("%d=%s@%d:%d", key, data, stamp.Origin, stamp.Seq))
	})
	if len(seen) != 1 || seen[0] != "1=new@0:2" {
		t.Fatalf("ForEachLatest = %v", seen)
	}
}

func TestStoreCreateTableIdempotent(t *testing.T) {
	s := NewStore(0)
	a := s.CreateTable("x")
	b := s.CreateTable("x")
	if a != b {
		t.Fatal("CreateTable returned distinct tables for one name")
	}
	if s.Table("y") != nil {
		t.Fatal("Table returned non-nil for missing table")
	}
	if s.maxVersions != DefaultMaxVersions {
		t.Fatalf("version cap = %d", s.maxVersions)
	}
}

func TestStoreTableNamesSorted(t *testing.T) {
	s := NewStore(0)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		s.CreateTable(n)
	}
	names := s.TableNames()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("TableNames = %v", names)
		}
	}
}

func TestSortRefsDedup(t *testing.T) {
	refs := []RowRef{{"b", 1}, {"a", 2}, {"a", 1}, {"a", 2}, {"b", 1}}
	got := SortRefs(refs)
	want := []RowRef{{"a", 1}, {"a", 2}, {"b", 1}}
	if len(got) != len(want) {
		t.Fatalf("SortRefs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortRefs = %v, want %v", got, want)
		}
	}
}

func TestRowRefCompare(t *testing.T) {
	if (RowRef{"a", 1}).Compare(RowRef{"a", 1}) != 0 {
		t.Error("equal refs compare nonzero")
	}
	if (RowRef{"a", 2}).Compare(RowRef{"b", 1}) != -1 {
		t.Error("table ordering broken")
	}
	if (RowRef{"a", 2}).Compare(RowRef{"a", 1}) != 1 {
		t.Error("key ordering broken")
	}
	if got := (RowRef{"t", 7}).String(); got != "t/7" {
		t.Errorf("String = %q", got)
	}
}

func TestLockSetUnknownTable(t *testing.T) {
	s := NewStore(0)
	s.CreateTable("known")
	_, _, err := s.LockSet([]RowRef{{"known", 1}, {"unknown", 2}})
	if err == nil {
		t.Fatal("LockSet accepted unknown table")
	}
	// The lock taken on the known record must have been released.
	r := s.Table("known").Record(1, false)
	if r == nil || !r.lock.TryLock() {
		t.Fatal("LockSet leaked a lock on failure")
	}
	r.Unlock()
}

func TestLockSetOrderingPreventsDeadlock(t *testing.T) {
	s := NewStore(0)
	s.CreateTable("t")
	// Two transactions locking overlapping sets in opposite textual order
	// must not deadlock because LockSet sorts canonically.
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, recs, err := s.LockSet([]RowRef{{"t", 1}, {"t", 2}, {"t", 3}})
			if err != nil {
				panic(err)
			}
			UnlockAll(recs)
		}()
		go func() {
			defer wg.Done()
			_, recs, err := s.LockSet([]RowRef{{"t", 3}, {"t", 2}, {"t", 1}})
			if err != nil {
				panic(err)
			}
			UnlockAll(recs)
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock in LockSet")
	}
}

func TestStoreApplyAndGet(t *testing.T) {
	s := NewStore(0)
	s.Apply(Stamp{0, 1}, []Write{
		{Ref: RowRef{"t", 1}, Data: []byte("x")},
		{Ref: RowRef{"t", 2}, Data: []byte("y")},
	})
	if d, ok := s.Get(RowRef{"t", 1}, vclock.Vector{1}); !ok || string(d) != "x" {
		t.Fatalf("Get = %q %v", d, ok)
	}
	if _, ok := s.Get(RowRef{"missing", 1}, vclock.Vector{1}); ok {
		t.Fatal("Get on missing table succeeded")
	}
	if n := s.Table("t").Keys(); n != 2 {
		t.Fatalf("Keys = %d", n)
	}
}

// Property: for any sequence of versions installed with increasing
// sequence numbers from a single origin, reading at snapshot seq s returns
// the version with the largest stamp <= s among the retained window.
func TestQuickSnapshotReadsSingleOrigin(t *testing.T) {
	f := func(nVersions uint8, snapSeq uint8) bool {
		n := int(nVersions%20) + 1
		r := new(Record)
		for seq := 1; seq <= n; seq++ {
			install(r, Stamp{0, uint64(seq)}, []byte{byte(seq)}, false, 4)
		}
		s := uint64(snapSeq) % uint64(n+3)
		d, ok := r.Read(vclock.Vector{s})
		oldestRetained := uint64(1)
		if n > 4 {
			oldestRetained = uint64(n - 3)
		}
		want := s
		if want > uint64(n) {
			want = uint64(n)
		}
		if want < oldestRetained {
			return !ok
		}
		return ok && uint64(d[0]) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: concurrent lock/install/read never corrupts a record — every
// read observes a value that was installed, and the chain stays bounded.
func TestConcurrentInstallAndRead(t *testing.T) {
	r := new(Record)
	install(r, Stamp{0, 1}, []byte{0, 1}, false, 4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		for seq := uint64(2); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			r.Lock()
			install(r, Stamp{0, seq}, []byte{byte(seq >> 8), byte(seq)}, false, 4)
			r.Unlock()
		}
	}()
	var bad bool
	go func() { // reader
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			d, ok := r.Read(vclock.Vector{1 << 62})
			if !ok || len(d) != 2 {
				bad = true
				return
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if bad {
		t.Fatal("reader observed corrupt state")
	}
	if r.VersionCount() > 4 {
		t.Fatalf("chain grew to %d", r.VersionCount())
	}
}
