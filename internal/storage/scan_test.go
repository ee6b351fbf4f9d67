package storage

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"dynamast/internal/vclock"
)

// scanModel is the brute-force reference the scan tests compare against:
// every install of every key, oldest first, with no index at all.
type scanModel map[uint64][]version

func (m scanModel) install(tb *Table, key uint64, seq uint64, data []byte, deleted bool) {
	install(tb.Record(key, true), Stamp{0, seq}, data, deleted, DefaultMaxVersions)
	m[key] = append(m[key], version{stamp: Stamp{0, seq}, data: data, deleted: deleted})
}

// scan is what a scan of [lo, hi) at snap must return: of each key's newest
// DefaultMaxVersions installs, the newest one visible; a tombstone hides the
// row, and a key with retained versions but none visible sets evicted.
func (m scanModel) scan(lo, hi uint64, snap vclock.Vector) (rows []KV, evicted bool) {
	var keys []uint64
	for k := range m {
		if lo <= k && k < hi {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		chain := m[k]
		if len(chain) > DefaultMaxVersions {
			chain = chain[len(chain)-DefaultMaxVersions:]
		}
		visible := false
		for i := len(chain) - 1; i >= 0 && !visible; i-- {
			if v := chain[i]; v.stamp.VisibleAt(snap) {
				visible = true
				if !v.deleted {
					rows = append(rows, KV{Key: k, Value: v.data})
				}
			}
		}
		if !visible {
			evicted = true
		}
	}
	return rows, evicted
}

func checkRows(t *testing.T, what string, got, want []KV) {
	t.Helper()
	for i := 1; i < len(got); i++ {
		if got[i-1].Key >= got[i].Key {
			t.Fatalf("%s: keys not strictly ascending at row %d: %d then %d", what, i, got[i-1].Key, got[i].Key)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, model has %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("%s: row %d = %d/%v, model %d/%v", what, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
}

// checkScans compares Scan/ScanChecked and ScanKeys with the model over one
// range, and ScanKeys' early stop at a random row.
func checkScans(t *testing.T, rnd *rand.Rand, tb *Table, m scanModel, lo, hi uint64, snap vclock.Vector) {
	t.Helper()
	want, wantEv := m.scan(lo, hi, snap)
	// ScanChecked appends: what dst already held stays in front of the rows.
	kept := KV{Key: 1<<64 - 1, Value: []byte("kept")}
	got, ev := tb.ScanChecked([]KV{kept}, lo, hi, snap)
	if len(got) == 0 || got[0].Key != kept.Key || !bytes.Equal(got[0].Value, kept.Value) {
		t.Fatalf("ScanChecked [%d,%d) lost the rows dst already held", lo, hi)
	}
	checkRows(t, "ScanChecked", got[1:], want)
	if ev != wantEv {
		t.Fatalf("ScanChecked [%d,%d) evicted = %v, model %v", lo, hi, ev, wantEv)
	}
	var each []KV
	ev = tb.ScanKeys(lo, hi, snap, func(k uint64, d []byte) bool {
		each = append(each, KV{k, d})
		return true
	})
	checkRows(t, "ScanKeys", each, want)
	if ev != wantEv {
		t.Fatalf("ScanKeys [%d,%d) evicted = %v, model %v", lo, hi, ev, wantEv)
	}
	if len(want) > 0 {
		stop := 1 + rnd.Intn(len(want))
		each = each[:0]
		tb.ScanKeys(lo, hi, snap, func(k uint64, d []byte) bool {
			each = append(each, KV{k, d})
			return len(each) < stop
		})
		checkRows(t, "ScanKeys early stop", each, want[:stop])
	}
}

func TestScanRandomizedAgainstModel(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	tb := NewTable("t")
	m := scanModel{}
	// Key shapes: a dense run, stride-16 keys that all land in one shard,
	// sparse composite keys with high bits set, and the top of the key space.
	draw := func() uint64 {
		switch rnd.Intn(4) {
		case 0:
			return uint64(rnd.Intn(120))
		case 1:
			return 1000 + 16*uint64(rnd.Intn(60)) + 3
		case 2:
			return 1<<63 | uint64(rnd.Intn(8))<<40 | uint64(rnd.Intn(40))
		default:
			return math.MaxUint64 - uint64(rnd.Intn(20))
		}
	}
	const installs = 1500
	for seq := uint64(1); seq <= installs; seq++ {
		k := draw()
		if rnd.Intn(3) == 0 {
			k = 16*uint64(rnd.Intn(7)) + 5 // hot keys: chains longer than the cap
		}
		m.install(tb, k, seq, []byte{byte(seq), byte(seq >> 8)}, rnd.Intn(6) == 0)
	}
	var keys []uint64
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	bound := func() uint64 { return keys[rnd.Intn(len(keys))] + uint64(rnd.Intn(3)) - 1 }

	fixed := [][2]uint64{
		{0, math.MaxUint64}, {0, 0}, {5, 5}, {10, 3}, {math.MaxUint64, 0},
		{math.MaxUint64, math.MaxUint64}, {math.MaxUint64 - 1, math.MaxUint64},
		{1 << 63, math.MaxUint64}, {1003, 1003 + 16*60}, {0, 120},
	}
	check := func() {
		t.Helper()
		for _, snap := range []vclock.Vector{{installs}, {installs / 2}, {0}, {}} {
			for _, r := range fixed {
				checkScans(t, rnd, tb, m, r[0], r[1], snap)
			}
			for i := 0; i < 200; i++ {
				checkScans(t, rnd, tb, m, bound(), bound(), snap)
			}
		}
		// The unbounded walks see every key, MaxUint64 included, in order.
		var latest []uint64
		tb.ForEachLatest(func(k uint64, _ []byte, _ Stamp) { latest = append(latest, k) })
		var exported []uint64
		tb.exportAt("t", vclock.Vector{installs}, func(_ string, k uint64, _ []byte, _ Stamp) bool {
			exported = append(exported, k)
			return true
		})
		var live []uint64
		for _, k := range keys {
			if chain, ok := m[k]; ok && !chain[len(chain)-1].deleted {
				live = append(live, k)
			}
		}
		if !slices.Equal(latest, live) || !slices.Equal(exported, live) {
			t.Fatalf("full walks: ForEachLatest %d keys, exportAt %d, model %d (or out of order)", len(latest), len(exported), len(live))
		}
	}
	check()

	// RemoveMatching keeps the two index slices aligned.
	drop := func(k uint64) bool { return k%3 == 0 }
	want := 0
	for _, k := range keys {
		if drop(k) {
			delete(m, k)
			want++
		}
	}
	if got := tb.RemoveMatching(drop); got != want {
		t.Fatalf("RemoveMatching removed %d, model %d", got, want)
	}
	if tb.Keys() != len(m) {
		t.Fatalf("Keys() = %d after removal, model %d", tb.Keys(), len(m))
	}
	check()
}

// A ScanKeys callback runs outside the shard locks: creating a key in the
// shard being scanned must not deadlock, and the new key is not visited.
func TestScanKeysReentrantCallback(t *testing.T) {
	tb := NewTable("t")
	for k := uint64(0); k < 64; k++ {
		install(tb.Record(k, true), Stamp{0, 1}, []byte{byte(k)}, false, 4)
	}
	done := make(chan int)
	go func() {
		n := 0
		tb.ScanKeys(0, 1<<20, vclock.Vector{1}, func(k uint64, _ []byte) bool {
			n++
			install(tb.Record(k+tableShards*1000, true), Stamp{0, 1}, nil, false, 4)
			return true
		})
		done <- n
	}()
	select {
	case n := <-done:
		if n != 64 {
			t.Fatalf("visited %d rows, want the 64 present when the scan began", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ScanKeys deadlocked on a callback that inserts into the scanned shard")
	}
	if tb.Keys() != 128 {
		t.Fatalf("Keys() = %d, want 128", tb.Keys())
	}
}

// Scans race inserts of new keys and RemoveMatching: every result is
// strictly ascending (so duplicate-free) and holds every key that was present
// throughout. Run with -race -count=10.
func TestScanConcurrentWithInsertAndRemove(t *testing.T) {
	tb := NewTable("t")
	snap := vclock.Vector{1}
	// Stable keys are even and never removed: a dense run plus one shard's
	// stride. Transient keys are odd.
	var stable []uint64
	for k := uint64(0); k < 600; k += 2 {
		stable = append(stable, k)
	}
	for k := uint64(10_000); k < 10_000+16*100; k += 16 {
		stable = append(stable, k)
	}
	for _, k := range stable {
		install(tb.Record(k, true), Stamp{0, 1}, []byte{1}, false, 4)
	}

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rnd := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 4000; i++ {
				k := uint64(rnd.Intn(6000))*2 + 1
				install(tb.Record(k, true), Stamp{0, 1}, []byte{2}, false, 4)
			}
		}(w)
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < 200; i++ {
			tb.RemoveMatching(func(k uint64) bool { return k%2 == 1 && k%uint64(3+i%5) == 0 })
		}
	}()
	verify := func(what string, lo, hi uint64, got []uint64) {
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Errorf("%s [%d,%d): %d then %d", what, lo, hi, got[i-1], got[i])
				return
			}
		}
		for _, k := range stable {
			if lo <= k && k < hi {
				if _, ok := slices.BinarySearch(got, k); !ok {
					t.Errorf("%s [%d,%d): stable key %d missing", what, lo, hi, k)
					return
				}
			}
		}
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rnd := rand.New(rand.NewSource(int64(100 + r)))
			var got []uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := uint64(rnd.Intn(12_000))
				hi := lo + uint64(rnd.Intn(2000))
				got = got[:0]
				switch i % 3 {
				case 0:
					for _, kv := range tb.Scan(lo, hi, snap) {
						got = append(got, kv.Key)
					}
					verify("Scan", lo, hi, got)
				case 1:
					tb.ScanKeys(lo, hi, snap, func(k uint64, _ []byte) bool {
						got = append(got, k)
						return true
					})
					verify("ScanKeys", lo, hi, got)
				default:
					tb.ForEachLatest(func(k uint64, _ []byte, _ Stamp) { got = append(got, k) })
					verify("ForEachLatest", 0, math.MaxUint64, got)
				}
			}
		}(r)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}

func TestScanAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tb := NewTable("t")
	for k := uint64(0); k < 4000; k++ {
		install(tb.Record(k, true), Stamp{0, 1}, []byte{1}, false, 4)
	}
	snap := vclock.Vector{1}
	allocs := testing.AllocsPerRun(50, func() {
		if rows := tb.Scan(1500, 2500, snap); len(rows) != 1000 {
			t.Fatalf("rows = %d", len(rows))
		}
	})
	if allocs != 1 {
		t.Fatalf("a 1000-row Scan made %v allocations, want 1", allocs)
	}
}
