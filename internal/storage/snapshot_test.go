package storage

import (
	"fmt"
	"sync"
	"testing"

	"dynamast/internal/vclock"
)

func TestExportAtRoundtrip(t *testing.T) {
	src := NewStore(0)
	for k := uint64(0); k < 100; k++ {
		src.Apply(Stamp{Origin: int(k % 3), Seq: k/3 + 1}, []Write{
			{Ref: RowRef{Table: "acct", Key: k}, Data: []byte(fmt.Sprintf("v%d", k))},
		})
	}
	// A row deleted before the snapshot must not be exported.
	src.Apply(Stamp{Origin: 0, Seq: 40}, []Write{
		{Ref: RowRef{Table: "acct", Key: 7}, Deleted: true},
	})
	svv := vclock.Vector{40, 40, 40}

	dst := NewStore(0)
	n := 0
	if !src.ExportAt(svv, nil, func(table string, key uint64, data []byte, stamp Stamp) bool {
		dst.ImportRow(table, key, data, stamp)
		n++
		return true
	}) {
		t.Fatal("export stopped early")
	}
	if n != 99 {
		t.Fatalf("exported %d rows, want 99 (100 minus one tombstone)", n)
	}
	for k := uint64(0); k < 100; k++ {
		want, wok := src.Get(RowRef{Table: "acct", Key: k}, svv)
		got, gok := dst.Get(RowRef{Table: "acct", Key: k}, svv)
		if wok != gok || string(want) != string(got) {
			t.Fatalf("key %d: src=(%q,%v) dst=(%q,%v)", k, want, wok, got, gok)
		}
	}
}

func TestExportAtStopsEarly(t *testing.T) {
	src := NewStore(0)
	for k := uint64(0); k < 50; k++ {
		src.Apply(Stamp{Origin: 0, Seq: k + 1}, []Write{
			{Ref: RowRef{Table: "t", Key: k}, Data: []byte("x")},
		})
	}
	n := 0
	done := src.ExportAt(vclock.Vector{50}, nil, func(string, uint64, []byte, Stamp) bool {
		n++
		return n < 10
	})
	if done || n != 10 {
		t.Fatalf("done=%v n=%d, want early stop after 10", done, n)
	}
}

// TestExportAtEvictedVersionFallsForward drives a record's version chain past
// the cap so the snapshot-visible version is evicted, and checks ExportAt
// emits the oldest retained (newer-than-snapshot) version instead of losing
// the row. Replaying the WAL suffix past the snapshot re-installs those newer
// versions anyway, so "too new" is recoverable where "missing" would not be.
func TestExportAtEvictedVersionFallsForward(t *testing.T) {
	s := NewStore(2)
	ref := RowRef{Table: "t", Key: 1}
	s.Apply(Stamp{Origin: 0, Seq: 1}, []Write{{Ref: ref, Data: []byte("old")}})
	snap := vclock.Vector{1}
	// Two more installs evict seq 1 from the 2-cap chain.
	s.Apply(Stamp{Origin: 0, Seq: 2}, []Write{{Ref: ref, Data: []byte("mid")}})
	s.Apply(Stamp{Origin: 0, Seq: 3}, []Write{{Ref: ref, Data: []byte("new")}})

	var got []byte
	var stamp Stamp
	s.ExportAt(snap, nil, func(_ string, _ uint64, data []byte, st Stamp) bool {
		got, stamp = data, st
		return true
	})
	if string(got) != "mid" || stamp.Seq != 2 {
		t.Fatalf("got (%q, seq %d), want oldest retained (\"mid\", seq 2)", got, stamp.Seq)
	}
}

// TestExportAtConcurrentWriters checks the export walk holds no lock that a
// committing writer needs: writers make progress while a slow export streams.
func TestExportAtConcurrentWriters(t *testing.T) {
	// The writer below laps the 200 keys at most seven times, so with eight
	// version slots the seed is never evicted during the walk.
	s := NewStore(MaxVersionCap)
	for k := uint64(0); k < 200; k++ {
		s.Apply(Stamp{Origin: 0, Seq: k + 1}, []Write{
			{Ref: RowRef{Table: "t", Key: k}, Data: []byte("seed")},
		})
	}
	svv := vclock.Vector{200, 0}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		seq := uint64(0)
		for seq < 200*(MaxVersionCap-1) {
			select {
			case <-stop:
				return
			default:
			}
			seq++
			s.Apply(Stamp{Origin: 1, Seq: seq}, []Write{
				{Ref: RowRef{Table: "t", Key: seq % 200}, Data: []byte("hot")},
			})
		}
	}()

	n := 0
	s.ExportAt(svv, nil, func(_ string, _ uint64, data []byte, st Stamp) bool {
		n++
		// Origin-1 writes are invisible at svv and cannot evict the seed, so
		// every exported version must be the seed.
		if st.Origin != 0 || string(data) != "seed" {
			t.Errorf("exported (%q, origin %d), want seed version", data, st.Origin)
			return false
		}
		return true
	})
	close(stop)
	wg.Wait()
	if n != 200 {
		t.Fatalf("exported %d rows, want 200", n)
	}
}
