package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dynamast/internal/selector"
	"dynamast/internal/storage"
	"dynamast/internal/systems"
	"dynamast/internal/wal"
)

// retainedGrants counts the grant records still retained in the cluster's
// logs.
func retainedGrants(c *Cluster) int {
	n := 0
	for i := range c.sites {
		cur := c.broker.Log(i).Subscribe(0)
		for e, ok := cur.TryNext(); ok; e, ok = cur.TryNext() {
			if e.Kind == wal.KindGrant {
				n++
			}
		}
		cur.Close()
	}
	return n
}

// TestPromotionAfterCheckpointTruncation remasters partitions until their
// grants are logged, checkpoints until truncation has dropped every grant
// from every log, and then kills every router shard's leader. The only
// record of those moves is the checkpoint, so each promotion must rebuild
// from it: the promoted map equals the dead leaders' map, and exactly one
// site masters each partition. The restart case recovers a new cluster from
// the checkpoint with HA on and kills the leaders before any new checkpoint,
// and drives more remasters before killing the leaders, with no new
// checkpoint: the promotions rebuild from the checkpoint Recover restored
// and the new incarnation's log suffix.
func TestPromotionAfterCheckpointTruncation(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, restart := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/restart=%v", shards, restart), func(t *testing.T) {
				promotionAfterTruncation(t, shards, restart)
			})
		}
	}
}

func promotionAfterTruncation(t *testing.T, shards int, restart bool) {
	const parts = 10
	dir := t.TempDir()
	var cfg Config
	c := newShardedCluster(t, 3, shards, func(cc *Config) {
		cc.SelectorLease = 20 * time.Millisecond
		cc.WALDir = dir
		cfg = *cc
	})
	initial := make(map[uint64]int, parts)
	for p := uint64(0); p < parts; p++ {
		initial[p] = c.Group().MasterOf(p)
	}

	remasterPairs(t, c, parts, 7)
	if retainedGrants(c) == 0 {
		t.Fatal("no grant was logged; the test needs remastering")
	}
	for attempt := 0; retainedGrants(c) > 0; attempt++ {
		if attempt == 5 {
			t.Fatalf("%d grant(s) still retained after %d checkpoints", retainedGrants(c), attempt)
		}
		if err := c.WaitQuiesced(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}

	if restart {
		// The new incarnation logs grants of its own past the recovered
		// checkpoint's fold offsets; the promotions must fold them too.
		c.Close()
		c = newRecoveredCluster(t, cfg, initial)
		remasterPairs(t, c, parts, 8)
		if retainedGrants(c) == 0 {
			t.Fatal("no grant was logged after the restart")
		}
	}

	want, _ := c.Group().PlacementSnapshot()
	moved := 0
	for p := uint64(0); p < parts; p++ {
		if want[p] != initial[p] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no partition left its initial master; the test needs moves only the checkpoint records")
	}

	leaders := make([]*selector.Selector, shards)
	for i := range leaders {
		leaders[i] = c.Group().Shard(i)
		c.SelectorShardHA(i).KillLeader()
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < shards; i++ {
		for c.Group().Shard(i) == leaders[i] { // a promotion swaps in a new leader
			if time.Now().After(deadline) {
				t.Fatalf("shard %d did not promote within 10s", i)
			}
			time.Sleep(time.Millisecond)
		}
	}

	got, _ := c.Group().PlacementSnapshot()
	if len(got) != len(want) {
		t.Fatalf("promoted map has %d partitions, the dead leaders had %d", len(got), len(want))
	}
	for p, site := range want {
		if got[p] != site {
			t.Fatalf("partition %d: promoted map says %d, the dead leader had %d (%d of %d partitions moved off their initial master)",
				p, got[p], site, moved, parts)
		}
		owners := 0
		for _, s := range c.Sites() {
			if s.Masters(p) {
				owners++
			}
		}
		if owners != 1 || !c.Sites()[site].Masters(p) {
			t.Fatalf("partition %d: %d site(s) master it, want exactly site %d", p, owners, site)
		}
	}
}

// TestCheckpointInsideFailoverWindow commits a checkpoint while a site
// failover is paused between logging a grant and registering it, then kills
// every router shard's leader. Each promotion rebuilds from that checkpoint,
// so its capture must not fold past a grant its placement does not show:
// otherwise the promoted map hands the failed-over partitions back to the
// dead site. The capture waits out the failover, so the pause ends on a
// timeout and the checkpoint commits after the registrations.
func TestCheckpointInsideFailoverWindow(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			checkpointInsideFailoverWindow(t, shards)
		})
	}
}

func checkpointInsideFailoverWindow(t *testing.T, shards int) {
	const parts, dead = 12, 1
	c := newShardedCluster(t, 3, shards, func(cc *Config) {
		cc.SelectorLease = 20 * time.Millisecond
		cc.WALDir = t.TempDir()
	})
	orphaned := 0
	for p := uint64(0); p < parts; p++ {
		if c.Group().MasterOf(p) == dead {
			orphaned++
		}
	}
	if orphaned == 0 {
		t.Fatalf("site %d masters no partition; the failover would grant nothing", dead)
	}

	granted, ckptDone := make(chan struct{}), make(chan struct{})
	var once sync.Once
	c.failoverMu.Lock()
	c.afterFailoverGrant = func() {
		once.Do(func() {
			close(granted)
			select {
			case <-ckptDone:
			case <-time.After(200 * time.Millisecond):
			}
		})
	}
	c.failoverMu.Unlock()

	c.KillSite(dead)
	failErr := make(chan error, 1)
	go func() { failErr <- c.Failover(dead) }()
	<-granted
	var ckptErr error
	go func() {
		_, ckptErr = c.Checkpoint()
		close(ckptDone)
	}()
	if err := <-failErr; err != nil {
		t.Fatal(err)
	}
	<-ckptDone
	if ckptErr != nil {
		t.Fatal(ckptErr)
	}

	want, _ := c.Group().PlacementSnapshot()
	for p, site := range want {
		if site == dead {
			t.Fatalf("partition %d: still mastered by dead site %d after failover", p, dead)
		}
	}
	leaders := make([]*selector.Selector, shards)
	for i := range leaders {
		leaders[i] = c.Group().Shard(i)
		c.SelectorShardHA(i).KillLeader()
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < shards; i++ {
		for c.Group().Shard(i) == leaders[i] { // a promotion swaps in a new leader
			if time.Now().After(deadline) {
				t.Fatalf("shard %d did not promote within 10s", i)
			}
			time.Sleep(time.Millisecond)
		}
	}

	got, _ := c.Group().PlacementSnapshot()
	for p, site := range want {
		if got[p] != site {
			t.Fatalf("partition %d: promoted map says %d, the dead leader had %d (%d partition(s) failed over from site %d)",
				p, got[p], site, orphaned, dead)
		}
		owners := 0
		for i, s := range c.Sites() {
			if i != dead && s.Masters(p) {
				owners++
			}
		}
		if owners != 1 || !c.Sites()[site].Masters(p) {
			t.Fatalf("partition %d: %d live site(s) master it, want exactly site %d", p, owners, site)
		}
	}
}

// remasterPairs runs 30 two-partition updates over random partition pairs;
// each remasters its write set onto one site.
func remasterPairs(t *testing.T, c *Cluster, parts int, seed int64) {
	t.Helper()
	sess := c.Session(int(seed))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 30; i++ {
		a := uint64(rng.Intn(parts))
		b := (a + 1 + uint64(rng.Intn(parts-1))) % uint64(parts)
		ka, kb := ref(a*100+uint64(i)), ref(b*100+uint64(i))
		if err := sess.Update([]storage.RowRef{ka, kb}, func(tx systems.Tx) error {
			if err := tx.Write(ka, []byte{byte(i)}); err != nil {
				return err
			}
			return tx.Write(kb, []byte{byte(i)})
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// newRecoveredCluster starts a cluster over cfg's WAL directory and recovers
// the previous incarnation's state into it.
func newRecoveredCluster(t *testing.T, cfg Config, initial map[uint64]int) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.CreateTable("kv")
	if err := c.Recover(initial); err != nil {
		t.Fatal(err)
	}
	if !c.LastRecovery().UsedCheckpoint {
		t.Fatal("recovery did not restore the checkpoint")
	}
	return c
}
