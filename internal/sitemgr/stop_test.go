package sitemgr

import (
	"testing"
	"time"

	"dynamast/internal/storage"
	"dynamast/internal/vclock"
	"dynamast/internal/wal"
)

// TestStopUnblocksDependencyWait: an applier parked on a cross-origin causal
// dependency that will never be satisfied (its producer published nothing)
// must not deadlock Stop. Regression test for a shutdown hang where one
// applier exited on stop while a sibling stayed blocked in WaitDimAtLeast.
func TestStopUnblocksDependencyWait(t *testing.T) {
	b := wal.NewBroker(3)
	s, err := New(Config{
		SiteID:      0,
		Sites:       3,
		Broker:      b,
		Partitioner: partitionBy100,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Store().CreateTable("t")
	s.SetMaster(2, false)
	s.Start()

	// Origin 2 publishes an update depending on origin 1's seq 5; origin 1
	// never publishes, so site 0's origin-2 applier blocks on the dependency.
	if _, err := b.Log(2).Append(wal.Entry{
		Kind:   wal.KindUpdate,
		Origin: 2,
		At:     time.Now(),
		TVV:    vclock.Vector{0, 5, 1},
		Writes: []storage.Write{{Ref: ref(200), Data: []byte("x")}},
	}); err != nil {
		t.Fatal(err)
	}
	// Give the applier time to reach the dependency wait.
	waitFor(t, func() bool { return s.SVV()[2] == 0 })
	time.Sleep(10 * time.Millisecond)

	done := make(chan struct{})
	go func() {
		b.Close()
		s.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop deadlocked on a blocked dependency wait")
	}
	// The blocked update must not have been applied out of order.
	if got := s.SVV()[2]; got != 0 {
		t.Fatalf("dependency-blocked update applied: svv[2] = %d", got)
	}
}
