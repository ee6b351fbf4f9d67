package pindex

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

type val struct{ k uint64 }

func TestMapPutGetDelete(t *testing.T) {
	var m Map[val]
	if m.Get(7) != nil || m.Len() != 0 || m.Slots() != 0 {
		t.Fatal("zero Map is not empty")
	}
	m.Delete(7) // no array yet
	vals := map[uint64]*val{}
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		k := rnd.Uint64() >> uint(rnd.Intn(64))
		switch rnd.Intn(3) {
		case 0:
			m.Delete(k)
			delete(vals, k)
		default:
			v := &val{k}
			m.Put(k, v)
			vals[k] = v
		}
	}
	if m.Len() != len(vals) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(vals))
	}
	for k, v := range vals {
		if got := m.Get(k); got != v {
			t.Fatalf("Get(%d) = %p, want %p", k, got, v)
		}
	}
	var keys []uint64
	m.Range(func(k uint64, p *val) {
		if p != vals[k] {
			t.Fatalf("Range gave %d -> %p, want %p", k, p, vals[k])
		}
		keys = append(keys, k)
	})
	if len(keys) != len(vals) {
		t.Fatalf("Range visited %d entries, want %d", len(keys), len(vals))
	}
	slices.Sort(keys)
	if len(slices.Compact(keys)) != len(vals) {
		t.Fatal("Range visited a key twice")
	}
}

// Putting and deleting fresh keys fills the array with tombstones, which
// the next rebuild drops, so the array stays within 4x the live keys. (The
// same keys churned reuse their slots; storage's TestPointIndexFootprint
// covers that.)
func TestMapChurnFootprint(t *testing.T) {
	const live = 10_000
	var m Map[val]
	for round := uint64(0); round < 100; round++ {
		base := round * live
		for k := base; k < base+live; k++ {
			m.Put(k, &val{k})
		}
		if m.Slots() > 4*live {
			t.Fatalf("round %d: %d slots for %d live keys", round, m.Slots(), live)
		}
		for k := base; k < base+live; k++ {
			m.Delete(k)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("Len after churn = %d, want 0", m.Len())
	}
}

// TestPointIndexConcurrent runs four lock-free readers against one writer
// that inserts 200k keys through at least ten growths and deletes keys the
// readers do not require. Keys present before the readers start must always
// be found with their own pointer; a deleted or not-yet-inserted key returns
// its own pointer or nil, never another key's. Run with -race -count=10.
func TestPointIndexConcurrent(t *testing.T) {
	const (
		preload = 128 // odd keys stay, even keys are deleted
		inserts = 200_000
		first   = 1000 // the first inserted key
	)
	var m Map[val]
	vals := make([]*val, preload+1)
	for k := uint64(1); k <= preload; k++ {
		vals[k] = &val{k}
		m.Put(k, vals[k])
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(r)))
			for !done.Load() {
				for k := uint64(1); k <= preload; k++ {
					p := m.Get(k)
					if k%2 == 1 && p != vals[k] || k%2 == 0 && p != nil && p != vals[k] {
						t.Errorf("Get(%d) = %p, want %p", k, p, vals[k])
						return
					}
				}
				// Key 0 is never put: a slot whose pointer were visible before
				// its key would read as key 0.
				if p := m.Get(0); p != nil {
					t.Errorf("Get(0) = %p (key %d), want nil", p, p.k)
					return
				}
				for i := 0; i < 64; i++ {
					k := first + uint64(rnd.Intn(inserts))
					if p := m.Get(k); p != nil && p.k != k {
						t.Errorf("Get(%d) returned key %d's pointer", k, p.k)
						return
					}
				}
			}
		}(r)
	}

	arrays := 0
	last := m.tab.Load()
	for i := uint64(0); i < inserts; i++ {
		k := first + i
		m.Put(k, &val{k})
		if k%2 == 0 && k >= first+300 {
			m.Delete(k - 300) // an earlier insert
		}
		if i%200 == 0 && i/200 <= preload/2 {
			m.Delete(2 * (i/200 + 1)) // an even preloaded key
		}
		if tab := m.tab.Load(); tab != last {
			arrays, last = arrays+1, tab
		}
	}
	done.Store(true)
	wg.Wait()
	if arrays < 10 {
		t.Fatalf("the writer replaced the array %d times, want at least 10", arrays)
	}
	for k := uint64(2); k <= preload; k += 2 {
		if m.Get(k) != nil {
			t.Fatalf("deleted key %d still present", k)
		}
	}
}
