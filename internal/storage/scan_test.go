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

// sortedKeys returns the model's keys in ascending order.
func (m scanModel) sortedKeys() []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// scan is what a scan of [lo, hi) at snap must return, given the model's
// sortedKeys: of each key's newest DefaultMaxVersions installs, the newest
// one visible; a tombstone hides the row, and a key with retained versions
// but none visible sets evicted.
func (m scanModel) scan(keys []uint64, lo, hi uint64, snap vclock.Vector) (rows []KV, evicted bool) {
	for _, k := range keys {
		if k < lo || k >= hi {
			continue
		}
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

// checkScans compares Scan/ScanChecked and ScanKeys with the model, whose
// sortedKeys are keys, over one range, and ScanKeys' early stop at a random
// row.
func checkScans(t *testing.T, rnd *rand.Rand, tb *Table, m scanModel, keys []uint64, lo, hi uint64, snap vclock.Vector) {
	t.Helper()
	want, wantEv := m.scan(keys, lo, hi, snap)
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

// checkIndex checks the table index's invariants while no writer runs: runs
// are non-empty, within runCap and at capacity runCap+1; keys ascend strictly
// within and across runs; and the ordered index, Keys() and the point index
// hold the same records.
func checkIndex(t *testing.T, tb *Table) {
	t.Helper()
	keys := tb.Keys()
	n, prev := 0, uint64(0)
	for ri, run := range tb.idx.runs {
		if len(run) == 0 || len(run) > runCap || cap(run) != runCap+1 {
			t.Fatalf("run %d: len %d cap %d, want len 1..%d and cap %d", ri, len(run), cap(run), runCap, runCap+1)
		}
		for i, e := range run {
			if n > 0 && e.key <= prev {
				t.Fatalf("run %d entry %d: key %d after %d", ri, i, e.key, prev)
			}
			if tb.recs.Get(e.key) != e.rec {
				t.Fatalf("run %d entry %d: key %d is not the point index's record", ri, i, e.key)
			}
			n, prev = n+1, e.key
		}
	}
	if n != keys || n != tb.recs.Len() {
		t.Fatalf("ordered index holds %d entries, Keys() = %d, point index %d", n, keys, tb.recs.Len())
	}
}

// edgeRanges returns scan ranges that end exactly on run edges: each run
// alone and without its end keys, and each gap between two runs with and
// without the keys either side of it.
func edgeRanges(tb *Table) (ranges [][2]uint64) {
	runs := tb.idx.runs
	for i, run := range runs {
		first, last := run[0].key, run[len(run)-1].key
		ranges = append(ranges, [2]uint64{first, last + 1}, [2]uint64{first + 1, last})
		if i+1 < len(runs) {
			next := runs[i+1][0].key
			ranges = append(ranges, [2]uint64{last, next + 1}, [2]uint64{last + 1, next})
		}
	}
	return ranges
}

// checkTable checks the index invariants, then every scan against the model
// at four snapshots (installs numbered 1..top): over the fixed ranges, the
// run-edge ranges, a range before and after every key and 200 random ranges
// near keys; then the two unbounded walks.
func checkTable(t *testing.T, rnd *rand.Rand, tb *Table, m scanModel, top uint64, fixed [][2]uint64) {
	t.Helper()
	checkIndex(t, tb)
	keys := m.sortedKeys()
	ranges := append(slices.Clone(fixed), edgeRanges(tb)...)
	if len(keys) > 0 {
		ranges = append(ranges, [2]uint64{0, keys[0]})
		if last := keys[len(keys)-1]; last < math.MaxUint64 {
			ranges = append(ranges, [2]uint64{last + 1, math.MaxUint64})
		}
	}
	for _, snap := range []vclock.Vector{{top}, {top / 2}, {0}, {}} {
		for _, r := range ranges {
			checkScans(t, rnd, tb, m, keys, r[0], r[1], snap)
		}
		for i := 0; i < 200 && len(keys) > 0; i++ {
			bound := func() uint64 { return keys[rnd.Intn(len(keys))] + uint64(rnd.Intn(3)) - 1 }
			checkScans(t, rnd, tb, m, keys, bound(), bound(), snap)
		}
	}
	// The unbounded walks, over [0, MaxUint64], see every live key, MaxUint64
	// included, in order.
	var latest []uint64
	tb.ForEachLatest(func(k uint64, _ []byte, _ Stamp) { latest = append(latest, k) })
	var exported []uint64
	tb.exportAt("t", vclock.Vector{top}, nil, func(_ string, k uint64, _ []byte, _ Stamp) bool {
		exported = append(exported, k)
		return true
	})
	var even []uint64
	tb.exportAt("t", vclock.Vector{top}, func(k uint64) bool { return k%2 == 0 }, func(_ string, k uint64, _ []byte, _ Stamp) bool {
		even = append(even, k)
		return true
	})
	var live, liveEven []uint64
	for _, k := range keys {
		if chain := m[k]; !chain[len(chain)-1].deleted {
			live = append(live, k)
			if k%2 == 0 {
				liveEven = append(liveEven, k)
			}
		}
	}
	if !slices.Equal(latest, live) || !slices.Equal(exported, live) || !slices.Equal(even, liveEven) {
		t.Fatalf("full walks: ForEachLatest %d keys, exportAt %d (%d even), model %d (%d even) (or out of order)",
			len(latest), len(exported), len(even), len(live), len(liveEven))
	}
}

// removeMatching runs RemoveMatching on the table and the model and checks
// the count and Keys() against the model.
func removeMatching(t *testing.T, tb *Table, m scanModel, drop func(k uint64) bool) {
	t.Helper()
	want := 0
	for k := range m {
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
}

func TestScanRandomizedAgainstModel(t *testing.T) {
	fixed := [][2]uint64{
		{0, math.MaxUint64}, {0, 0}, {5, 5}, {10, 3}, {math.MaxUint64, 0},
		{math.MaxUint64, math.MaxUint64}, {math.MaxUint64 - 1, math.MaxUint64},
		{1 << 63, math.MaxUint64}, {1003, 1003 + 16*60}, {0, 120},
	}

	t.Run("empty", func(t *testing.T) {
		checkTable(t, rand.New(rand.NewSource(1)), NewTable("t"), scanModel{}, 1, fixed)
	})

	t.Run("mixed", func(t *testing.T) {
		rnd := rand.New(rand.NewSource(1))
		tb := NewTable("t")
		m := scanModel{}
		// Key shapes: a dense run, stride-16 keys, sparse composite keys with
		// high bits set, and the top of the key space.
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
		checkTable(t, rnd, tb, m, installs, fixed)
		removeMatching(t, tb, m, func(k uint64) bool { return k%3 == 0 })
		checkTable(t, rnd, tb, m, installs, fixed)
	})

	// Insert orders that split runs at their end (ascending), their front
	// (descending) and their middle (shuffled), over enough keys for several
	// runs. Keys are spaced two apart, so every gap between keys is a range.
	const n = 3*runCap + 7
	for _, order := range []string{"ascending", "descending", "shuffled"} {
		t.Run(order, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(2))
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = 10 + 2*uint64(i)
			}
			switch order {
			case "descending":
				slices.Reverse(keys)
			case "shuffled":
				rnd.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			}
			tb := NewTable("t")
			m := scanModel{}
			for i, k := range keys {
				m.install(tb, k, uint64(i+1), []byte{byte(i), byte(i >> 8)}, i%7 == 0)
			}
			if runs := len(tb.idx.runs); runs < 4 {
				t.Fatalf("%d keys made %d runs, want at least 4", n, runs)
			}
			checkTable(t, rnd, tb, m, n, fixed)

			// Drop the second run whole, and every third key elsewhere.
			runs := len(tb.idx.runs)
			second := tb.idx.runs[1]
			lo, last := second[0].key, second[len(second)-1].key
			removeMatching(t, tb, m, func(k uint64) bool { return lo <= k && k <= last || k%3 == 0 })
			if got := len(tb.idx.runs); got != runs-1 {
				t.Fatalf("removing a whole run left %d runs, want %d", got, runs-1)
			}
			checkTable(t, rnd, tb, m, n, fixed)

			// Inserts land in the survivors and the gap, then everything goes.
			for i := uint64(0); i < runCap; i++ {
				k := lo + 2*i + 1
				m.install(tb, k, n, []byte{byte(i)}, false)
			}
			checkTable(t, rnd, tb, m, n, fixed)
			removeMatching(t, tb, m, func(uint64) bool { return true })
			if len(tb.idx.runs) != 0 {
				t.Fatalf("an empty table keeps %d runs", len(tb.idx.runs))
			}
			checkTable(t, rnd, tb, m, n, fixed)
		})
	}
}

// A ScanKeys callback runs outside the table locks: creating a key in the
// table being scanned must not deadlock, and the new key is not visited.
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
			install(tb.Record(k+16_000, true), Stamp{0, 1}, nil, false, 4)
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
		t.Fatal("ScanKeys deadlocked on a callback that inserts into the scanned table")
	}
	if tb.Keys() != 128 {
		t.Fatalf("Keys() = %d, want 128", tb.Keys())
	}
}

// Scans and point lookups race inserts of new keys and RemoveMatching: every
// scan is strictly ascending (so duplicate-free) and holds every key that was
// present throughout; a lookup of such a key finds its record, and a lookup
// of a transient key finds nothing or a transient record. Readers run a fixed number of scans, not until the writers
// stop: scans are cheap, and readers looping until then take the index lock
// so often that they slow the writers, and the test, tenfold. Run with
// -race -count=10.
func TestScanConcurrentWithInsertAndRemove(t *testing.T) {
	tb := NewTable("t")
	snap := vclock.Vector{1}
	// Stable keys are even and never removed: a dense run plus a stride-16
	// run. Transient keys are odd.
	var stable []uint64
	for k := uint64(0); k < 600; k += 2 {
		stable = append(stable, k)
	}
	for k := uint64(10_000); k < 10_000+16*100; k += 16 {
		stable = append(stable, k)
	}
	recs := make(map[uint64]*Record, len(stable))
	for _, k := range stable {
		recs[k] = tb.Record(k, true)
		install(recs[k], Stamp{0, 1}, []byte{1}, false, 4)
	}

	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(200 + r)))
			for i := 0; i < 20_000; i++ {
				k := stable[rnd.Intn(len(stable))]
				if got := tb.Record(k, false); got != recs[k] {
					t.Errorf("Record(%d) = %p, want %p", k, got, recs[k])
					return
				}
				if d, ok := tb.Get(k, snap); !ok || d[0] != 1 {
					t.Errorf("Get(%d) = %v, %v", k, d, ok)
					return
				}
				k = uint64(rnd.Intn(6000))*2 + 1
				if d, _, ok := tb.GetLatest(k); ok && d[0] != 2 {
					t.Errorf("transient key %d read a stable row's data %v", k, d)
					return
				}
			}
		}(r)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 4000; i++ {
				k := uint64(rnd.Intn(6000))*2 + 1
				install(tb.Record(k, true), Stamp{0, 1}, []byte{2}, false, 4)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
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
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(100 + r)))
			var got []uint64
			for i := 0; i < 300; i++ {
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
	wg.Wait()
	checkIndex(t, tb)
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
