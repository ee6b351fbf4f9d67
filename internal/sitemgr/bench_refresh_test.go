package sitemgr

import (
	"fmt"
	"testing"
	"time"

	"dynamast/internal/storage"
	"dynamast/internal/vclock"
	"dynamast/internal/wal"
)

// BenchmarkRefreshApplyBatch measures a replica absorbing a backlog of
// already-published updates: the per-entry cost of the refresh pipeline
// (cursor wake, dependency check, apply-slot acquisition, store apply,
// clock advance). The origin's log is pre-filled so the applier drains at
// full speed — the case batching targets.
func BenchmarkRefreshApplyBatch(b *testing.B) {
	broker := wal.NewBroker(2)
	at := time.Now().Add(-time.Second) // already past any propagation delay
	for i := 1; i <= b.N; i++ {
		k := uint64(i % 1000)
		broker.Log(0).Append(wal.Entry{
			Kind:   wal.KindUpdate,
			Origin: 0,
			At:     at,
			TVV:    vclock.Vector{uint64(i), 0},
			Writes: []storage.Write{{Ref: storage.RowRef{Table: "t", Key: k}, Data: []byte("v")}},
		})
	}
	site, err := New(Config{
		SiteID: 1, Sites: 2, Broker: broker,
		Partitioner: partitionBy100,
	})
	if err != nil {
		b.Fatal(err)
	}
	site.Store().CreateTable("t")
	b.ReportAllocs()
	b.ResetTimer()
	site.Start()
	// Entry i carries origin 0's sequence i, so the backlog is applied once
	// the site's clock reaches b.N in that dimension.
	site.Clock().WaitDimAtLeast(0, uint64(b.N))
	b.StopTimer()
	broker.Close()
	site.Stop()
}

// BenchmarkTxnScan measures a read-only transaction's range scan through
// Txn.Scan — begin, one scan of rows rows, commit — the ycsb_scan unit of
// work. allocs/op is the figure of merit: the rows land in a pooled,
// transaction-owned buffer.
func BenchmarkTxnScan(b *testing.B) {
	broker := wal.NewBroker(1)
	defer broker.Close()
	site, err := New(Config{SiteID: 0, Sites: 1, Broker: broker, Partitioner: partitionBy100})
	if err != nil {
		b.Fatal(err)
	}
	site.Store().CreateTable("t")
	const keys = 100_000
	for k := uint64(0); k < keys; k++ {
		site.Store().ImportRow("t", k, make([]byte, 100), storage.Stamp{})
	}
	for _, rows := range []uint64{100, 1000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			lo := uint64(0)
			for i := 0; i < b.N; i++ {
				lo = (lo + 7919) % (keys - rows)
				tx, err := site.Begin(nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				if got := tx.Scan("t", lo, lo+rows); uint64(len(got)) != rows {
					b.Fatalf("rows=%d", len(got))
				}
				if _, err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
