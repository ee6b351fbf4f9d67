package core

import (
	"testing"
	"time"

	"dynamast/internal/wal"
)

// TestChaosEpochKillSiteMidRun reruns the seed-42 chaos scenario — injected
// wire faults, a site killed mid-run, heartbeat failover — with epoch
// group-commit enabled, so the kill lands mid-epoch at some site. The
// shared runner asserts the SI/SSSI invariants (no torn pairs, monotonic
// sessions, exact commit accounting); afterwards every site's log is
// scanned to prove the remaster fence held: no epoch or update frame
// writes a partition after the origin released it and before it was
// granted back.
func TestChaosEpochKillSiteMidRun(t *testing.T) {
	c, inj, _ := newChaosCluster(t, func(cfg *Config) {
		cfg.EpochInterval = 2 * time.Millisecond
	})
	runChaosKillSiteMidRun(t, c, inj)

	epochs := 0
	for i := range c.Sites() {
		l := c.Broker().Log(i)
		released := map[uint64]bool{}
		cur := l.Subscribe(0)
		defer cur.Close()
		for e, ok := cur.TryNext(); ok; e, ok = cur.TryNext() {
			switch e.Kind {
			case wal.KindRelease:
				for _, p := range e.Partitions {
					released[p] = true
				}
			case wal.KindGrant:
				for _, p := range e.Partitions {
					released[p] = false
				}
			case wal.KindEpoch:
				epochs++
				for _, m := range e.Txns {
					for _, w := range m.Writes {
						if p := partitionBy100(w.Ref); released[p] {
							t.Fatalf("site %d offset %d: epoch writes partition %d after its release", i, e.Offset, p)
						}
					}
				}
			case wal.KindUpdate:
				t.Fatalf("site %d offset %d: per-txn update logged with epochs enabled", i, e.Offset)
			}
		}
	}
	if epochs == 0 {
		t.Fatal("chaos run logged no epoch frames")
	}
}
