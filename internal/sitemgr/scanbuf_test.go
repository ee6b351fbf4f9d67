package sitemgr

import (
	"testing"

	"dynamast/internal/storage"
)

// raceEnabled is set by race_test.go: under the race detector sync.Pool drops
// items at random and allocations are instrumented, so the warm-scan
// allocation pin only holds without it.
var raceEnabled bool

// loadRows gives site s rows [0, n) of table "t", row k holding {byte(k)}.
func loadRows(s *Site, n uint64) {
	for k := uint64(0); k < n; k++ {
		s.Store().ImportRow("t", k, []byte{byte(k)}, storage.Stamp{})
	}
}

func checkRows(t *testing.T, what string, rows []storage.KV, lo, hi uint64) {
	t.Helper()
	if uint64(len(rows)) != hi-lo {
		t.Fatalf("%s: %d rows, want %d", what, len(rows), hi-lo)
	}
	for i, kv := range rows {
		if k := lo + uint64(i); kv.Key != k || len(kv.Value) != 1 || kv.Value[0] != byte(k) {
			t.Fatalf("%s: row %d = %d/%v, want key %d", what, i, kv.Key, kv.Value, k)
		}
	}
}

// TestScanRowsLiveUntilFinish pins the lifetime rule of Txn.Scan: every scan
// of a transaction stays intact while later scans append behind it, appending
// to a returned slice cannot scribble over a later scan, and once the
// transaction commits or aborts the rows read as cleared — a caller that
// kept them past the end fails loudly instead of reading another
// transaction's rows.
func TestScanRowsLiveUntilFinish(t *testing.T) {
	sites, _ := testCluster(t, 1)
	s := sites[0]
	loadRows(s, 300)
	for _, finish := range []struct {
		name string
		fn   func(*Txn)
	}{
		{"commit", func(tx *Txn) { mustCommit(t, tx) }},
		{"abort", (*Txn).Abort},
	} {
		tx, err := s.Begin(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		first := tx.Scan("t", 0, 100)
		second := tx.Scan("t", 100, 300)
		_ = append(first, storage.KV{Key: 999}) // must not land on second[0]
		third := tx.Scan("t", 50, 60)
		checkRows(t, finish.name+": first scan", first, 0, 100)
		checkRows(t, finish.name+": second scan", second, 100, 300)
		checkRows(t, finish.name+": third scan", third, 50, 60)

		finish.fn(tx)
		for i, kv := range third {
			if kv.Key != 0 || kv.Value != nil {
				t.Fatalf("%s: row %d still reads %d/%v after the transaction finished", finish.name, i, kv.Key, kv.Value)
			}
		}
	}
}

// TestAbandonedTxnKeepsItsScanBuffer checks a transaction that is never
// finished returns nothing to the pool: its rows stay its own while other
// transactions scan, commit and recycle their buffers.
func TestAbandonedTxnKeepsItsScanBuffer(t *testing.T) {
	sites, _ := testCluster(t, 1)
	s := sites[0]
	loadRows(s, 200)
	abandoned, err := s.Begin(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	kept := abandoned.Scan("t", 0, 100)
	for i := 0; i < 20; i++ {
		tx, err := s.Begin(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkRows(t, "live scan", tx.Scan("t", 100, 200), 100, 200)
		mustCommit(t, tx)
	}
	checkRows(t, "abandoned transaction's rows", kept, 0, 100)
}

// TestWarmScanAllocatesNothing pins the point of the pooled buffer: once a
// buffer of the right size is in the pool, a 1000-row Txn.Scan and the
// read-only commit that recycles it allocate nothing.
func TestWarmScanAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sites, _ := testCluster(t, 1)
	s := sites[0]
	loadRows(s, 1000)
	const runs = 50
	txns := make([]*Txn, runs+1) // AllocsPerRun makes one warm-up call
	for i := range txns {
		tx, err := s.Begin(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		txns[i] = tx
	}
	i := 0
	if n := testing.AllocsPerRun(runs, func() {
		if rows := txns[i].Scan("t", 0, 1000); len(rows) != 1000 {
			t.Fatalf("scan returned %d rows", len(rows))
		}
		if _, err := txns[i].Commit(); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("warm 1000-row Txn.Scan + Commit: %v allocations, want 0", n)
	}
}
