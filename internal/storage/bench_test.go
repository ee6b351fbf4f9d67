package storage

import (
	"fmt"
	"testing"

	"dynamast/internal/vclock"
)

func BenchmarkRecordInstall(b *testing.B) {
	for _, cap := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("versions=%d", cap), func(b *testing.B) {
			r := newRecord()
			data := make([]byte, 100)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Install(Stamp{0, uint64(i + 1)}, data, false, cap)
			}
		})
	}
}

func BenchmarkRecordRead(b *testing.B) {
	r := newRecord()
	for s := uint64(1); s <= 4; s++ {
		r.Install(Stamp{0, s}, make([]byte, 100), false, 4)
	}
	snap := vclock.Vector{3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.Read(snap); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkTableGet(b *testing.B) {
	t := NewTable("t")
	for k := uint64(0); k < 100_000; k++ {
		t.Record(k, true).Install(Stamp{0, 1}, make([]byte, 100), false, 4)
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
		t.Record(k, true).Install(Stamp{0, 1}, make([]byte, 100), false, 4)
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

// BenchmarkTableScan runs scans from GOMAXPROCS goroutines at once, over the
// two key shapes that bound the merge: dense keys rotate through every shard,
// stride-16 keys all sit in one.
func BenchmarkTableScan(b *testing.B) {
	for _, stride := range []uint64{1, tableShards} {
		t := NewTable("t")
		for k := uint64(0); k < 100_000; k++ {
			t.Record(k*stride, true).Install(Stamp{0, 1}, make([]byte, 100), false, 4)
		}
		shape := "dense"
		if stride > 1 {
			shape = "stride16"
		}
		for _, rows := range []uint64{200, 1000} {
			b.Run(fmt.Sprintf("rows=%d/%s", rows, shape), func(b *testing.B) {
				snap := vclock.Vector{1}
				b.ReportAllocs()
				b.RunParallel(func(pb *testing.PB) {
					lo := uint64(0)
					for pb.Next() {
						lo = (lo + 7919) % (100_000 - rows)
						if got := t.Scan(lo*stride, (lo+rows)*stride, snap); uint64(len(got)) != rows {
							b.Errorf("rows=%d", len(got))
							return
						}
					}
				})
			})
		}
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

func BenchmarkStoreApply(b *testing.B) {
	s := NewStore(0)
	s.CreateTable("t")
	writes := []Write{
		{Ref: RowRef{"t", 1}, Data: make([]byte, 100)},
		{Ref: RowRef{"t", 2}, Data: make([]byte, 100)},
		{Ref: RowRef{"t", 3}, Data: make([]byte, 100)},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Apply(Stamp{0, uint64(i + 1)}, writes)
	}
}
