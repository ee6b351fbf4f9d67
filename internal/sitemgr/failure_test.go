package sitemgr

import (
	"errors"
	"testing"

	"dynamast/internal/storage"
	"dynamast/internal/wal"
)

// countKind tallies entries of kind k in site i's log.
func countKind(b *wal.Broker, i int, k wal.Kind) int {
	cur := b.Log(i).Subscribe(0)
	n := 0
	for {
		e, ok := cur.TryNext()
		if !ok {
			return n
		}
		if e.Kind == k {
			n++
		}
	}
}

func TestReleaseGrantIdempotentPerEpoch(t *testing.T) {
	sites, b := testCluster(t, 2)
	s0, s1 := sites[0], sites[1]

	const epoch = 7
	rel1, err := s0.Release([]uint64{0}, 1, epoch)
	if err != nil {
		t.Fatal(err)
	}
	// A retried release (lost RPC response) must be a lookup, not a second
	// state change: same vector, no new log entry.
	rel2, err := s0.Release([]uint64{0}, 1, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if !rel1.Equal(rel2) {
		t.Fatalf("retried release returned %v, first returned %v", rel2, rel1)
	}
	if n := countKind(b, 0, wal.KindRelease); n != 1 {
		t.Fatalf("%d release entries logged, want 1", n)
	}

	g1, err := s1.Grant([]uint64{0}, rel1, 0, epoch)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := s1.Grant([]uint64{0}, rel1, 0, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if !g1.Equal(g2) {
		t.Fatalf("retried grant returned %v, first returned %v", g2, g1)
	}
	if n := countKind(b, 1, wal.KindGrant); n != 1 {
		t.Fatalf("%d grant entries logged, want 1", n)
	}
	if !s1.Masters(0) || s0.Masters(0) {
		t.Fatalf("ownership wrong after idempotent transfer: s0=%v s1=%v", s0.Masters(0), s1.Masters(0))
	}
}

// TestReleaseGrantMemoPerChain covers a sharded selector, whose router
// shards allocate epochs independently: two chains with the same epoch over
// disjoint partitions must both take effect, while a retry of either is
// still a memo hit that logs nothing.
func TestReleaseGrantMemoPerChain(t *testing.T) {
	sites, b := testCluster(t, 2)
	s0, s1 := sites[0], sites[1]

	const epoch = 3
	relA, err := s0.Release([]uint64{1}, 1, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s0.Release([]uint64{2}, 1, epoch); err != nil {
		t.Fatal(err)
	}
	if s0.Masters(1) || s0.Masters(2) {
		t.Fatalf("same-epoch releases did not both surrender: p1=%v p2=%v", s0.Masters(1), s0.Masters(2))
	}
	if _, err := s1.Grant([]uint64{1}, relA, 0, epoch); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Grant([]uint64{2}, relA, 0, epoch); err != nil {
		t.Fatal(err)
	}
	if !s1.Masters(1) || !s1.Masters(2) {
		t.Fatalf("same-epoch grants did not both take ownership: p1=%v p2=%v", s1.Masters(1), s1.Masters(2))
	}

	// Retries of the first chain are lookups: same vector, no new entries.
	if again, err := s0.Release([]uint64{1}, 1, epoch); err != nil || !again.Equal(relA) {
		t.Fatalf("retried release = %v/%v, first returned %v", again, err, relA)
	}
	if _, err := s1.Grant([]uint64{1}, relA, 0, epoch); err != nil {
		t.Fatal(err)
	}
	if n := countKind(b, 0, wal.KindRelease); n != 2 {
		t.Fatalf("%d release entries logged, want 2", n)
	}
	if n := countKind(b, 1, wal.KindGrant); n != 2 {
		t.Fatalf("%d grant entries logged, want 2", n)
	}
}

func TestStaleEpochFenced(t *testing.T) {
	sites, _ := testCluster(t, 3)
	s0, s1 := sites[0], sites[1]

	// Partition 0 moves 0 -> 1 under epoch 10.
	rel, err := s0.Release([]uint64{0}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Grant([]uint64{0}, rel, 0, 10); err != nil {
		t.Fatal(err)
	}

	// A straggler chain from before (epoch 4) must not clobber the newer
	// ownership at either end.
	if _, err := s1.Release([]uint64{0}, 2, 4); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale release: %v", err)
	}
	if _, err := s0.Grant([]uint64{0}, rel, 1, 4); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale grant: %v", err)
	}
	if !s1.Masters(0) || s0.Masters(0) {
		t.Fatalf("stale chain moved ownership: s0=%v s1=%v", s0.Masters(0), s1.Masters(0))
	}
}

func TestKilledSiteFailsFast(t *testing.T) {
	sites, _ := testCluster(t, 2)
	s0 := sites[0]

	// A transaction in flight when the site dies must abort retryably, not
	// hang or commit.
	tx, err := s0.Begin(nil, []storage.RowRef{ref(5)})
	if err != nil {
		t.Fatal(err)
	}
	tx.Write(ref(5), []byte("doomed"))

	s0.Kill()
	if s0.Alive() {
		t.Fatal("killed site reports alive")
	}
	if _, err := tx.Commit(); !errors.Is(err, ErrSiteDown) {
		t.Fatalf("commit on killed site: %v", err)
	}

	if _, err := s0.Begin(nil, []storage.RowRef{ref(5)}); !errors.Is(err, ErrSiteDown) {
		t.Fatalf("begin on killed site: %v", err)
	}
	if _, err := s0.Begin(nil, nil); !errors.Is(err, ErrSiteDown) {
		t.Fatalf("read-only begin on killed site: %v", err)
	}
	if _, err := s0.Release([]uint64{0}, 1, 1); !errors.Is(err, ErrSiteDown) {
		t.Fatalf("release on killed site: %v", err)
	}
	if _, err := s0.Grant([]uint64{9}, nil, 1, 2); !errors.Is(err, ErrSiteDown) {
		t.Fatalf("grant on killed site: %v", err)
	}
	// Kill is idempotent. (Stop still requires the broker closed first —
	// the testCluster cleanup tears down in that order.)
	s0.Kill()
}

func TestReleaseAppendFailureKeepsOwnership(t *testing.T) {
	// The satellite fix: if the WAL append fails, the site must NOT have
	// surrendered ownership — otherwise the partition is stranded (no log
	// record for recovery, no live master).
	sites, b := testCluster(t, 2)
	s0 := sites[0]

	// Closing the site's log makes every append fail.
	b.Log(0).Close()
	if _, err := s0.Release([]uint64{0}, 1, 3); err == nil {
		t.Fatal("release succeeded with a dead log")
	}
	if !s0.Masters(0) {
		t.Fatal("release with failed append surrendered ownership")
	}
	// The partition is not stuck in `releasing` either: mastership checks
	// still pass for routing purposes.
	s0.pmu.Lock()
	releasing := s0.parts[0].releasing
	s0.pmu.Unlock()
	if releasing {
		t.Fatal("failed release left partition marked releasing")
	}
}
