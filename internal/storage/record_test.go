package storage

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"dynamast/internal/vclock"
)

// raceEnabled is set by race_test.go: the race detector instruments
// allocations, so the AllocsPerRun pins only hold without it.
var raceEnabled bool

// install publishes one freshly built version cell, as the store's import
// paths do.
func install(r *Record, stamp Stamp, data []byte, deleted bool, maxVersions int) {
	r.install(&Write{Data: data, Deleted: deleted, Stamp: stamp}, maxVersions)
}

// installCell publishes a cell the caller built, as Store.Apply does.
func installCell(r *Record, w *Write, maxVersions int) { r.install(w, maxVersions) }

// version and sliceChain are the layout records had before the lock-free
// chain — a newest-first slice trimmed to the cap — kept as the reference the
// model test compares every read path against.
type version struct {
	stamp   Stamp
	data    []byte
	deleted bool
}

type sliceChain []version

func (c *sliceChain) install(v version, maxVersions int) {
	*c = append(sliceChain{v}, *c...)
	if len(*c) > maxVersions {
		*c = (*c)[:maxVersions]
	}
}

func (c sliceChain) readChecked(snap vclock.Vector) (data []byte, ok, evicted bool) {
	for _, v := range c {
		if v.stamp.VisibleAt(snap) {
			if v.deleted {
				return nil, false, false
			}
			return v.data, true, false
		}
	}
	return nil, false, len(c) > 0
}

func (c sliceChain) readLatest() ([]byte, Stamp, bool) {
	if len(c) == 0 || c[0].deleted {
		return nil, Stamp{}, false
	}
	return c[0].data, c[0].stamp, true
}

func (c sliceChain) headStamp() (Stamp, bool) {
	if len(c) == 0 {
		return Stamp{}, false
	}
	return c[0].stamp, true
}

func (c sliceChain) exportAt(snap vclock.Vector) ([]byte, Stamp, bool) {
	for _, v := range c {
		if v.stamp.VisibleAt(snap) {
			if v.deleted {
				return nil, Stamp{}, false
			}
			return v.data, v.stamp, true
		}
	}
	if n := len(c); n > 0 && !c[n-1].deleted {
		return c[n-1].data, c[n-1].stamp, true
	}
	return nil, Stamp{}, false
}

// TestRecordMatchesSliceModel drives random installs — every cap the ablation
// sweeps, three origins, tombstones — into a record and the slice reference
// side by side and compares every reader after each one, at random snapshots.
func TestRecordMatchesSliceModel(t *testing.T) {
	const origins = 3
	for _, maxVersions := range []int{1, 2, 4, 8} {
		rnd := rand.New(rand.NewSource(int64(maxVersions)))
		r := new(Record)
		var ref sliceChain
		var seqs [origins]uint64
		for step := 0; step < 400; step++ {
			if step > 0 {
				o := rnd.Intn(origins)
				seqs[o]++
				v := version{stamp: Stamp{o, seqs[o]}, data: []byte{byte(step), byte(step >> 8)}, deleted: rnd.Intn(6) == 0}
				if v.deleted {
					v.data = nil
				}
				install(r, v.stamp, v.data, v.deleted, maxVersions)
				ref.install(v, maxVersions)
			}
			if got, want := r.VersionCount(), len(ref); got != want {
				t.Fatalf("cap %d step %d: VersionCount = %d, want %d", maxVersions, step, got, want)
			}
			gs, gok := r.HeadStamp()
			ws, wok := ref.headStamp()
			if gs != ws || gok != wok {
				t.Fatalf("cap %d step %d: HeadStamp = %v %v, want %v %v", maxVersions, step, gs, gok, ws, wok)
			}
			gd, gs, gok := r.ReadLatest()
			wd, ws, wok := ref.readLatest()
			if !bytes.Equal(gd, wd) || gs != ws || gok != wok {
				t.Fatalf("cap %d step %d: ReadLatest = %v %v %v, want %v %v %v", maxVersions, step, gd, gs, gok, wd, ws, wok)
			}
			for probe := 0; probe < 8; probe++ {
				snap := make(vclock.Vector, origins)
				for o := range snap {
					snap[o] = uint64(rnd.Int63n(int64(seqs[o]) + 2))
				}
				gd, gok, gev := r.ReadChecked(snap)
				wd, wok, wev := ref.readChecked(snap)
				if !bytes.Equal(gd, wd) || gok != wok || gev != wev {
					t.Fatalf("cap %d step %d snap %v: ReadChecked = %v %v %v, want %v %v %v",
						maxVersions, step, snap, gd, gok, gev, wd, wok, wev)
				}
				gd, gs, gok := r.ExportAt(snap)
				wd, ws, wok := ref.exportAt(snap)
				if !bytes.Equal(gd, wd) || gs != ws || gok != wok {
					t.Fatalf("cap %d step %d snap %v: ExportAt = %v %v %v, want %v %v %v",
						maxVersions, step, snap, gd, gs, gok, wd, ws, wok)
				}
			}
		}
	}
}

// TestRecordReadersNeverSkipAVersion runs one installer per record against
// lock-free readers. Versions 1, 2, 3, … come from one origin, every seventh a
// tombstone, so the version a reader at snapshot s must find is exactly
// version s. Installs shift the chain under the reader's feet; it may report
// the version evicted only if install s+cap — the one that pushes s off the
// end — had started by the time the read returned, and must never return an
// older version or a clean miss.
func TestRecordReadersNeverSkipAVersion(t *testing.T) {
	const installs, readers = 20000, 3
	var wg sync.WaitGroup
	for _, maxVersions := range []int{1, 2, 4, 8} {
		r := new(Record)
		var started, done atomic.Uint64 // highest install begun / completed
		install(r, Stamp{0, 1}, []byte{0, 0, 1}, false, maxVersions)
		started.Store(1)
		done.Store(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(2); seq <= installs; seq++ {
				started.Store(seq)
				install(r, Stamp{0, seq}, []byte{byte(seq >> 16), byte(seq >> 8), byte(seq)}, seq%7 == 0, maxVersions)
				done.Store(seq)
			}
		}()
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					s := done.Load()
					snap := vclock.Vector{s}
					data, ok, evicted := r.ReadChecked(snap)
					switch {
					case evicted:
						if began := started.Load(); began < s+uint64(maxVersions) {
							t.Errorf("cap %d: version %d reported evicted with only %d installs begun", maxVersions, s, began)
							return
						}
					case s%7 == 0:
						if ok {
							t.Errorf("cap %d: snapshot %d read %v through its tombstone", maxVersions, s, data)
							return
						}
					case !ok || uint64(data[0])<<16|uint64(data[1])<<8|uint64(data[2]) != s:
						t.Errorf("cap %d: snapshot %d read %v %v, want version %d", maxVersions, s, data, ok, s)
						return
					}
					if _, st, ok := r.ExportAt(snap); ok && st.Seq < s {
						t.Errorf("cap %d: ExportAt(%d) went back to version %d", maxVersions, s, st.Seq)
						return
					}
					if n := r.VersionCount(); n < 1 || n > maxVersions {
						t.Errorf("cap %d: VersionCount = %d", maxVersions, n)
						return
					}
					if s == installs {
						return
					}
				}
			}()
		}
	}
	wg.Wait()
}

// TestApplyStampsAndSharesCells pins the cell contract: Apply stamps the
// caller's own elements and publishes them by address; a second store handed
// the same, already stamped slice (a replica reading the shared log entry)
// publishes the same cells without writing to them; handing a published slice
// to a different commit is a caller bug and panics under test.
func TestApplyStampsAndSharesCells(t *testing.T) {
	writes := []Write{
		{Ref: RowRef{"t", 1}, Data: []byte("x")},
		{Ref: RowRef{"t", 2}, Deleted: true},
	}
	origin, replica := NewStore(0), NewStore(0)
	origin.Apply(Stamp{1, 5}, writes)
	replica.Apply(Stamp{1, 5}, writes)
	for i, w := range writes {
		if w.Stamp != (Stamp{1, 5}) {
			t.Fatalf("write %d stamp = %+v", i, w.Stamp)
		}
		for _, s := range []*Store{origin, replica} {
			if got := s.Table("t").Record(w.Ref.Key, false).v[0].Load(); got != &writes[i] {
				t.Fatalf("write %d: head cell %p is not the caller's element %p", i, got, &writes[i])
			}
		}
	}
	if d, ok := replica.Get(RowRef{"t", 1}, vclock.Vector{0, 5}); !ok || string(d) != "x" {
		t.Fatalf("replica Get = %q %v", d, ok)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Apply accepted cells already published under another stamp")
		}
	}()
	origin.Apply(Stamp{1, 6}, writes)
}

func TestNewStoreRejectsCapBeyondSlots(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewStore accepted a cap above MaxVersionCap")
		}
	}()
	NewStore(MaxVersionCap + 1)
}

// TestHotPathAllocations pins what the layout is for: a new record is a
// slot of its table's record slab, not an allocation of its own, installing a
// commit's write set into existing records is none (the cells are the
// caller's slice), and a scan into a buffer with room is none.
func TestHotPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	idx, key := &NewTable("t").idx, uint64(0)
	if n := testing.AllocsPerRun(1000, func() { sink = idx.insert(key); key++ }); n != 0 {
		t.Errorf("index insert of a new key: %v allocations per record, want 0 (%d records a slab)", n, slabLen)
	}

	s := NewStore(0)
	tb := s.CreateTable("t")
	for k := uint64(0); k < 1000; k++ {
		s.ImportRow("t", k, []byte{byte(k)}, Stamp{})
	}
	const runs = 100
	sets := make([][]Write, runs+1) // AllocsPerRun makes one warm-up call
	for i := range sets {
		sets[i] = []Write{{Ref: RowRef{"t", 1}}, {Ref: RowRef{"t", 2}}, {Ref: RowRef{"t", 3}}}
	}
	i := 0
	if n := testing.AllocsPerRun(runs, func() {
		s.Apply(Stamp{0, uint64(i + 1)}, sets[i])
		i++
	}); n != 0 {
		t.Errorf("Apply of 3 rows into existing records: %v allocations, want 0", n)
	}

	snap := vclock.Vector{runs + 1}
	buf := make([]KV, 0, 1000)
	if n := testing.AllocsPerRun(100, func() {
		out, _ := tb.ScanChecked(buf[:0], 0, 1000, snap)
		if len(out) != 1000 {
			t.Fatalf("scan returned %d rows", len(out))
		}
	}); n != 0 {
		t.Errorf("ScanChecked of 1000 rows into a warm buffer: %v allocations, want 0", n)
	}
}

var sink any
