package storage

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"dynamast/internal/vclock"
)

// BenchmarkRecordInstall measures publishing one version into a full chain at
// every cap the ablation sweeps. The cells come from a ring built up front,
// as a commit's cells come from its write set: the install itself allocates
// nothing.
func BenchmarkRecordInstall(b *testing.B) {
	ring := make([]Write, 1024)
	for i := range ring {
		ring[i] = Write{Data: make([]byte, 100)}
	}
	for _, cap := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("versions=%d", cap), func(b *testing.B) {
			r := new(Record)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				installCell(r, &ring[i%len(ring)], cap)
			}
		})
	}
}

// BenchmarkRecordRead measures the per-row snapshot read from GOMAXPROCS
// goroutines at once over 1024 four-version records: the snapshot either sees
// each head or has to walk to the third version.
func BenchmarkRecordRead(b *testing.B) {
	recs := make([]*Record, 1024)
	for i := range recs {
		recs[i] = new(Record)
		for s := uint64(1); s <= 4; s++ {
			install(recs[i], Stamp{0, s}, make([]byte, 100), false, 4)
		}
	}
	for _, bc := range []struct {
		name string
		snap vclock.Vector
	}{{"head", vclock.Vector{4}}, {"third", vclock.Vector{2}}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for i := 0; pb.Next(); i++ {
					if _, ok, _ := recs[i%len(recs)].ReadChecked(bc.snap); !ok {
						b.Error("miss")
						return
					}
				}
			})
		})
	}
}

func BenchmarkTableGet(b *testing.B) {
	t := NewTable("t")
	for k := uint64(0); k < 100_000; k++ {
		install(t.Record(k, true), Stamp{0, 1}, make([]byte, 100), false, 4)
	}
	snap := vclock.Vector{1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := t.Get(uint64(i)%100_000, snap); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkTableScan1000(b *testing.B) {
	t := NewTable("t")
	for k := uint64(0); k < 100_000; k++ {
		install(t.Record(k, true), Stamp{0, 1}, make([]byte, 100), false, 4)
	}
	snap := vclock.Vector{1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := uint64(i) % 99_000
		if rows := t.Scan(lo, lo+1000, snap); len(rows) != 1000 {
			b.Fatalf("rows=%d", len(rows))
		}
	}
}

// BenchmarkTableScan runs scans from GOMAXPROCS goroutines at once over
// 100k dense keys.
func BenchmarkTableScan(b *testing.B) {
	t := NewTable("t")
	for k := uint64(0); k < 100_000; k++ {
		install(t.Record(k, true), Stamp{0, 1}, make([]byte, 100), false, 4)
	}
	for _, rows := range []uint64{200, 1000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			snap := vclock.Vector{1}
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				lo := uint64(0)
				for pb.Next() {
					lo = (lo + 7919) % (100_000 - rows)
					if got := t.Scan(lo, lo+rows, snap); uint64(len(got)) != rows {
						b.Errorf("rows=%d", len(got))
						return
					}
				}
			})
		})
	}
}

// BenchmarkTableRecordParallel measures the point lookup every read, commit
// and refresh apply makes: Record(k, false) on random existing keys of four
// 100k-key tables, from GOMAXPROCS goroutines at once.
func BenchmarkTableRecordParallel(b *testing.B) {
	const keys = 100_000
	tables := make([]*Table, 4)
	for i := range tables {
		tables[i] = NewTable(fmt.Sprint("t", i))
		for k := uint64(0); k < keys; k++ {
			tables[i].Record(k, true)
		}
	}
	var seed atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		x := seed.Add(1)
		for pb.Next() {
			x = x*6364136223846793005 + 1442695040888963407 // an LCG step
			k := (x >> 32) % keys
			if tables[k%4].Record(k, false) == nil {
				b.Error("miss")
				return
			}
		}
	})
}

// BenchmarkTableInsert loads 100k new keys into an empty table per
// iteration, in ascending order (a bulk load, TPC-C's order ids) and in
// shuffled order (every insert lands mid-index); ns/key is the cost of one
// Record(create).
func BenchmarkTableInsert(b *testing.B) {
	const n = 100_000
	for _, order := range []string{"ascending", "shuffled"} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i)
		}
		if order == "shuffled" {
			rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		}
		b.Run(order, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t := NewTable("t")
				for _, k := range keys {
					t.Record(k, true)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/key")
		})
	}
}

func BenchmarkLockSet3(b *testing.B) {
	s := NewStore(0)
	s.CreateTable("t")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i % 1000)
		_, recs, err := s.LockSet([]RowRef{{"t", k}, {"t", k + 1}, {"t", k + 2}})
		if err != nil {
			b.Fatal(err)
		}
		UnlockAll(recs)
	}
}

// BenchmarkStoreApply measures installing a three-row commit into existing
// records. Each iteration builds its own write set, as a committing
// transaction does — Apply keeps the slice as the rows' version cells.
func BenchmarkStoreApply(b *testing.B) {
	s := NewStore(0)
	s.CreateTable("t")
	data := make([]byte, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Apply(Stamp{0, uint64(i + 1)}, []Write{
			{Ref: RowRef{"t", 1}, Data: data},
			{Ref: RowRef{"t", 2}, Data: data},
			{Ref: RowRef{"t", 3}, Data: data},
		})
	}
}
