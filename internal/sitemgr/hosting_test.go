package sitemgr

import (
	"testing"

	"dynamast/internal/storage"
	"dynamast/internal/wal"
)

// TestBootstrapKeepsRowsAppliedAfterFlip: a write that reaches the new
// replica through its applier between the hosting flip and the bootstrap
// copy is newer than the copy, which must not bury it.
func TestBootstrapKeepsRowsAppliedAfterFlip(t *testing.T) {
	b := wal.NewBroker(2)
	sites := make([]*Site, 2)
	for i := range sites {
		i := i
		s, err := New(Config{SiteID: i, Sites: 2, Broker: b, Partitioner: partitionBy100,
			PartialReplication: true, DefaultHosted: func(uint64) bool { return i == 0 }})
		if err != nil {
			t.Fatal(err)
		}
		s.Store().CreateTable("t")
		s.SetMaster(0, i == 0)
		sites[i] = s
	}
	for _, s := range sites {
		s.Start()
	}
	t.Cleanup(func() {
		b.Close()
		for _, s := range sites {
			s.Stop()
		}
	})
	src, dst := sites[0], sites[1]
	src.Store().ImportRow("t", 5, []byte("loaded"), storage.Stamp{})

	cut := dst.HostPartition(0)
	tx, err := src.Begin(nil, []storage.RowRef{ref(5)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(ref(5), []byte("written")); err != nil {
		t.Fatal(err)
	}
	tvv := mustCommit(t, tx)
	dst.Clock().WaitDominatesEq(tvv) // the applier installed the write at dst

	if rows, _ := dst.BootstrapPartitionFrom(src, 0, cut); rows != 0 {
		t.Errorf("bootstrap copied %d rows over newer applied state", rows)
	}
	if data, ok := dst.ReadLocal(ref(5)); !ok || string(data) != "written" {
		t.Fatalf("row 5 at the new replica = %q %v, want the applied write", data, ok)
	}
}
