package sitemgr

import (
	"errors"
	"testing"
	"time"

	"dynamast/internal/wal"
)

// newFencePair builds two replicating sites over one broker with partition
// ownership seeded at site 0.
func newFencePair(t *testing.T) ([]*Site, *wal.Broker) {
	t.Helper()
	b := wal.NewBroker(2)
	sites := make([]*Site, 2)
	for i := range sites {
		s, err := New(Config{
			SiteID: i, Sites: 2, Broker: b,
			Partitioner: partitionBy100,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Store().CreateTable("t")
		for p := uint64(0); p < 10; p++ {
			s.SetMaster(p, i == 0)
		}
		sites[i] = s
		s.Start()
	}
	t.Cleanup(func() {
		b.Close()
		for _, s := range sites {
			s.Stop()
		}
	})
	return sites, b
}

func TestFenceEpochsBelow(t *testing.T) {
	sites, _ := newFencePair(t)
	s0, s1 := sites[0], sites[1]

	// An unsharded selector fences the one shard {0, 1}, whose range is
	// every partition.
	if s0.rangeFences.Load() != nil {
		t.Fatal("a fence is installed before any promotion")
	}
	if got := s0.FenceEpochsBelowRange(5, 0, 1); got != 5 {
		t.Fatalf("fence install returned %d, want 5", got)
	}
	// The floor only rises: a lower fence is a no-op returning the one in
	// effect, re-installing the same floor is idempotent.
	if got := s0.FenceEpochsBelowRange(3, 0, 1); got != 5 {
		t.Fatalf("lower fence returned %d, want 5", got)
	}
	if got := s0.FenceEpochsBelowRange(5, 0, 1); got != 5 {
		t.Fatalf("idempotent fence returned %d, want 5", got)
	}
	// shards <= 1 names the same one-shard fence.
	if got := s0.FenceEpochsBelowRange(4, 0, 0); got != 5 || len(*s0.rangeFences.Load()) != 1 {
		t.Fatalf("shards=0 fence returned %d over %d fences, want 5 over 1", got, len(*s0.rangeFences.Load()))
	}

	// Operations below the floor die with ErrStaleEpoch.
	if _, err := s0.Release([]uint64{1}, 1, 4); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("release below floor: err = %v, want ErrStaleEpoch", err)
	}
	// The one-shard fence covers every partition set, the empty one too.
	if _, err := s0.Release(nil, 1, 4); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("empty release below floor: err = %v, want ErrStaleEpoch", err)
	}
	s1.FenceEpochsBelowRange(5, 0, 1)
	if _, err := s1.Grant([]uint64{1}, nil, 0, 4); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("grant below floor: err = %v, want ErrStaleEpoch", err)
	}
	if s1.Masters(1) || !s0.Masters(1) {
		t.Fatal("fenced operations changed ownership")
	}

	// Epoch-0 (unfenced, coordinator-less) transfers are unaffected, and
	// operations at or above the floor proceed.
	rel, err := s0.Release([]uint64{1}, 1, 0)
	if err != nil {
		t.Fatalf("epoch-0 release under fence: %v", err)
	}
	if _, err := s1.Grant([]uint64{1}, rel, 0, 0); err != nil {
		t.Fatalf("epoch-0 grant under fence: %v", err)
	}
	rel, err = s1.Release([]uint64{1}, 0, 5)
	if err != nil {
		t.Fatalf("release at floor: %v", err)
	}
	if _, err := s0.Grant([]uint64{1}, rel, 1, 6); err != nil {
		t.Fatalf("grant above floor: %v", err)
	}
	if !s0.Masters(1) || s1.Masters(1) {
		t.Fatal("at/above-floor transfer did not complete")
	}

	// A dead site still serves the fence (promotion treats fenced and
	// crashed sites uniformly).
	s1.Kill()
	if got := s1.FenceEpochsBelowRange(9, 0, 1); got != 9 {
		t.Fatalf("fence on dead site returned %d, want 9", got)
	}
}

func TestFoldMastership(t *testing.T) {
	sites, b := newFencePair(t)
	s0, s1 := sites[0], sites[1]

	// A completed chain at epoch 2: partition 3 moves 0 -> 1.
	rel, err := s0.Release([]uint64{3}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Grant([]uint64{3}, rel, 0, 2); err != nil {
		t.Fatal(err)
	}
	// A dangling release at epoch 3: partition 4 released by site 0, the
	// grant never ran (coordinator died between the legs).
	if _, err := s0.Release([]uint64{4}, 1, 3); err != nil {
		t.Fatal(err)
	}

	f, err := FoldMastership(b, FoldBase{})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Epoch[3]; got != 2 {
		t.Fatalf("fold epoch of partition 3 = %d, want 2", got)
	}
	if got, ok := f.Dangling[4]; !ok || got != 0 {
		t.Fatalf("dangling = %v, want partition 4 -> releaser 0", f.Dangling)
	}
	if _, dangling := f.Dangling[3]; dangling {
		t.Fatal("completed chain reported dangling")
	}
	// The zero base names owners only where a log grant exists: the
	// dangling partition and the untouched one have none.
	if f.Owner[3] != 1 || len(f.Owner) != 1 {
		t.Fatalf("zero-base owners = %v, want only 3 -> 1", f.Owner)
	}
	if f.MaxEpoch != 3 {
		t.Fatalf("fold max epoch = %d, want 3", f.MaxEpoch)
	}

	// A base overlays: a partition only in the base keeps its entry, and a
	// grant replaces a base entry only under a strictly higher epoch.
	base := FoldBase{
		Owner: map[uint64]int{3: 0, 5: 1},
		Epoch: map[uint64]uint64{3: 1, 5: 1},
	}
	if f, err = FoldMastership(b, base); err != nil {
		t.Fatal(err)
	}
	if f.Owner[5] != 1 || f.Epoch[5] != 1 {
		t.Fatalf("base-only partition 5 = %d@%d, want 1@1", f.Owner[5], f.Epoch[5])
	}
	if f.Owner[3] != 1 || f.Epoch[3] != 2 {
		t.Fatalf("partition 3 = %d@%d, want the higher-epoch grant 1@2", f.Owner[3], f.Epoch[3])
	}
	if base.Owner[3] != 0 || base.Epoch[3] != 1 {
		t.Fatal("the fold wrote through to the caller's base")
	}
	// An equal-epoch grant keeps the base entry, and a base install at the
	// release's epoch settles that release: the grant leg ran, below the
	// base's fold offsets.
	tie := FoldBase{
		Owner: map[uint64]int{3: 0, 4: 1},
		Epoch: map[uint64]uint64{3: 2, 4: 3},
	}
	if f, err = FoldMastership(b, tie); err != nil {
		t.Fatal(err)
	}
	if f.Owner[3] != 0 || f.Owner[4] != 1 {
		t.Fatalf("equal-epoch owners = %v, want the base's 3 -> 0, 4 -> 1", f.Owner)
	}
	if len(f.Dangling) != 0 {
		t.Fatalf("dangling = %v, want none under a base that installed the release's epoch", f.Dangling)
	}

	// A base whose fold offset is behind a truncated log is refused: the
	// records in the gap are covered only by a newer base.
	end := b.Log(0).Len()
	deadline := time.Now().Add(5 * time.Second)
	for b.Log(0).Base() < end {
		if time.Now().After(deadline) {
			t.Fatalf("site 0 log not truncated to %d (base %d)", end, b.Log(0).Base())
		}
		if _, err := b.Log(0).SetLowWater(end); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond) // the peer's refresh cursor pins the floor until it drains
	}
	if _, err := FoldMastership(b, FoldBase{From: []uint64{end - 1, 0}}); !errors.Is(err, ErrFoldBaseTruncated) {
		t.Fatalf("stale base: err = %v, want ErrFoldBaseTruncated", err)
	}
	if _, err := FoldMastership(b, FoldBase{From: []uint64{end, 0}}); err != nil {
		t.Fatalf("base at the truncation floor: %v", err)
	}
}
