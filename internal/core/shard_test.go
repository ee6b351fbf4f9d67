package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"dynamast/internal/obs"
	"dynamast/internal/selector"
	"dynamast/internal/storage"
	"dynamast/internal/systems"
	"dynamast/internal/transport"
)

// Sharded selector control plane: end-to-end coverage of WithSelectorShards.
// The cluster splits routing, statistics, placement and (under HA) leases
// across N independent router shards, and sessions route off a gossiped
// placement cache with zero selector RPCs in steady state.

func newShardedCluster(t *testing.T, sites, shards int, mutate func(*Config)) *Cluster {
	t.Helper()
	cfg := Config{
		Sites:          sites,
		Partitioner:    partitionBy100,
		Weights:        selector.YCSBWeights(),
		SelectorShards: shards,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.CreateTable("kv")
	rows := make([]systems.LoadRow, 0, 1000)
	for k := uint64(0); k < 1000; k++ {
		rows = append(rows, systems.LoadRow{Ref: ref(k), Data: []byte{byte(k)}})
	}
	c.Load(rows)
	return c
}

// routeMessages returns the CatRoute message count: the session <-> selector
// begin_transaction traffic the placement cache is meant to eliminate.
func routeMessages(c *Cluster) uint64 {
	for _, st := range c.Network().Stats() {
		if st.Category == transport.CatRoute {
			return st.Messages
		}
	}
	return 0
}

func TestSelectorShardsValidation(t *testing.T) {
	if _, err := NewWithOptions(WithSites(2), WithPartitioner(partitionBy100),
		WithSelectorShards(selector.MaxRouterShards+1)); err == nil {
		t.Fatal("oversized shard count accepted")
	}
	c, err := NewWithOptions(WithSites(2), WithPartitioner(partitionBy100))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if got := c.SelectorShardCount(); got != 1 {
		t.Fatalf("default shard count = %d, want 1", got)
	}
	if _, ok := c.Obs().Snapshot().Value(cacheEntries); ok {
		t.Fatal("single-shard cluster built a placement cache")
	}
}

func TestShardedClusterEndToEnd(t *testing.T) {
	c := newShardedCluster(t, 3, 4, nil)
	if got := c.SelectorShardCount(); got != 4 {
		t.Fatalf("shard count = %d, want 4", got)
	}
	if _, ok := c.Obs().Snapshot().Value(cacheEntries); !ok {
		t.Fatal("sharded cluster did not enable the placement cache")
	}

	// Writes across every shard's partition range, including cross-shard
	// sets (partitions 0..9 spread over 4 shards).
	sess := c.Session(1)
	for p := uint64(0); p < 10; p++ {
		key := ref(p * 100)
		if err := sess.Update([]storage.RowRef{key}, func(tx systems.Tx) error {
			return tx.Write(key, []byte{byte(p)})
		}); err != nil {
			t.Fatalf("write to partition %d: %v", p, err)
		}
	}
	// A cross-shard write set: co-locate two partitions owned by different
	// router shards.
	g := c.Group()
	var pa, pb uint64
	found := false
	for a := uint64(0); a < 10 && !found; a++ {
		for b := a + 1; b < 10; b++ {
			if g.ShardOf(a) != g.ShardOf(b) {
				pa, pb, found = a, b, true
				break
			}
		}
	}
	if !found {
		t.Fatal("no cross-shard partition pair in 0..9")
	}
	a, b := ref(pa*100+1), ref(pb*100+1)
	if err := sess.Update([]storage.RowRef{a, b}, func(tx systems.Tx) error {
		if err := tx.Write(a, []byte{1}); err != nil {
			return err
		}
		return tx.Write(b, []byte{1})
	}); err != nil {
		t.Fatalf("cross-shard update: %v", err)
	}
	if got := g.MasterOf(pa); got != g.MasterOf(pb) {
		t.Fatalf("cross-shard write did not co-locate: %d vs %d", got, g.MasterOf(pb))
	}

	// Every partition has exactly one owning site, agreed by sites and the
	// owning router shard; no shard tracks a foreign partition.
	for p := uint64(0); p < 10; p++ {
		owners, ownerSite := 0, -1
		for i, s := range c.Sites() {
			if s.Masters(p) {
				owners++
				ownerSite = i
			}
		}
		if owners != 1 {
			t.Fatalf("partition %d has %d owning sites", p, owners)
		}
		if got := g.MasterOf(p); got != ownerSite {
			t.Fatalf("partition %d: group says %d, sites say %d", p, got, ownerSite)
		}
	}
	for si := 0; si < g.Shards(); si++ {
		for site := range c.Sites() {
			for _, p := range g.Shard(si).MasteredBy(site) {
				if g.ShardOf(p) != si {
					t.Fatalf("shard %d tracks foreign partition %d", si, p)
				}
			}
		}
	}

	// Reads see every committed write.
	if err := sess.Read(func(tx systems.Tx) error {
		for p := uint64(0); p < 10; p++ {
			v, _ := tx.Read(ref(p * 100))
			if len(v) != 1 || v[0] != byte(p) {
				return fmt.Errorf("partition %d read %v, want [%d]", p, v, p)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCachedRoutingZeroRouterRPCs counter-verifies the tentpole's steady
// state: once the gossiped cache holds the placement, session reads — and
// single-partition writes — route with zero CatRoute messages.
func TestCachedRoutingZeroRouterRPCs(t *testing.T) {
	c := newShardedCluster(t, 3, 4, nil)

	// Warm: loading registered partitions 0..9; wait for a gossip pull to
	// copy them into the cache.
	deadline := time.Now().Add(5 * time.Second)
	for cacheSeries(c, cacheEntries) < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("cache never warmed: %d entries", cacheSeries(c, cacheEntries))
		}
		time.Sleep(time.Millisecond)
	}

	sess := c.Session(2)
	// One write to set the session's cvv, outside the measured window.
	if err := sess.Update([]storage.RowRef{ref(5)}, func(tx systems.Tx) error {
		return tx.Write(ref(5), []byte{1})
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitQuiesced(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Steady-state reads: zero router RPCs, every one served by the cache.
	readsBefore, msgsBefore := cacheSeries(c, cacheRoutes, cacheReads), routeMessages(c)
	for i := 0; i < 50; i++ {
		if err := sess.Read(func(tx systems.Tx) error {
			_, _ = tx.Read(ref(uint64(i) % 1000))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if d := routeMessages(c) - msgsBefore; d != 0 {
		t.Fatalf("%d CatRoute messages during cached reads, want 0", d)
	}
	if d := cacheSeries(c, cacheRoutes, cacheReads) - readsBefore; d < 50 {
		t.Fatalf("cache served %d of 50 reads", d)
	}

	// Steady-state single-partition writes: also zero router RPCs.
	writesBefore, msgsBefore := cacheSeries(c, cacheRoutes, cacheWrites), routeMessages(c)
	for i := 0; i < 10; i++ {
		if err := sess.Update([]storage.RowRef{ref(7)}, func(tx systems.Tx) error {
			return tx.Write(ref(7), []byte{byte(i)})
		}); err != nil {
			t.Fatal(err)
		}
	}
	if d := routeMessages(c) - msgsBefore; d != 0 {
		t.Fatalf("%d CatRoute messages during cached writes, want 0", d)
	}
	if d := cacheSeries(c, cacheRoutes, cacheWrites) - writesBefore; d != 10 {
		t.Fatalf("cache served %d of 10 writes", d)
	}
}

// TestStaleCacheWriteRecovers drives the optimistic-write fallback on every
// control-plane topology that has a placement cache.
func TestStaleCacheWriteRecovers(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		mutate func(*Config)
	}{
		{"1shard+1replica", 1, func(cfg *Config) { cfg.SelectorReplicas = 1 }},
		{"1shard+HA", 1, func(cfg *Config) { cfg.SelectorLease = time.Second }},
		{"4shards", 4, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			staleCacheWriteRecovers(t, newShardedCluster(t, 2, tc.shards, tc.mutate))
		})
	}
}

// staleCacheWriteRecovers makes the cache's owner entry for partition 0 go
// stale (an epoch-0 seed behind a higher cached epoch — the monotonic ingest
// rightly refuses the rollback), then checks that the routed write bounces
// off the former master with ErrNotMaster, the session's resubmit routes
// authoritatively and commits exactly once, and the resubmit's answer is
// learned: the cache points at the new master afterwards.
func staleCacheWriteRecovers(t *testing.T, c *Cluster) {
	t.Helper()
	g := c.Group()
	sess := c.Session(3)

	// Remaster partition 0 under an allocated (nonzero) epoch so its cache
	// entry carries that epoch: the shard's delta feed publishes the move.
	cur := g.MasterOf(0)
	dest := 1 - cur
	epoch, err := g.ShardFor(0).AllocEpoch()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := c.Sites()[cur].Release([]uint64{0}, dest, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sites()[dest].Grant([]uint64{0}, rel, cur, epoch); err != nil {
		t.Fatal(err)
	}
	g.RegisterPartitionEpoch(0, dest, epoch)

	// Wait until the delta feed (or gossip) has cached partition 0 at dest.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if r, ok := probeCachedWrite(c, 3, ref(2)); ok && r.Site == dest {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cache never learned the remastered placement")
		}
		time.Sleep(time.Millisecond)
	}

	// Move partition 0 back behind the cache's back: a site-level transfer
	// plus an epoch-0 selector seed. The selector map follows (seeds are
	// authoritative); the cache's monotonic ingest refuses the epoch
	// rollback and keeps routing at dest — stale.
	other := 1 - dest
	rel, err = c.Sites()[dest].Release([]uint64{0}, other, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sites()[other].Grant([]uint64{0}, rel, dest, 0); err != nil {
		t.Fatal(err)
	}
	g.RegisterPartitionEpoch(0, other, 0)
	if got := g.MasterOf(0); got != other {
		t.Fatalf("selector did not follow the seed: master %d, want %d", got, other)
	}
	// A gossip pull that snapshotted the placement before the move-back
	// would, if it landed after the resubmit's learn below, restore dest at
	// the same epoch. Pulls run one at a time on the cache loop, so once the
	// pull counter has advanced past its value here, every such pull has
	// been applied.
	pulls := func() float64 {
		v, _ := c.Obs().Snapshot().Value("dynamast_selector_cache_gossip_total")
		return v
	}
	deadline = time.Now().Add(5 * time.Second)
	for start := pulls(); pulls() <= start; {
		if time.Now().After(deadline) {
			t.Fatal("placement cache gossip stopped pulling")
		}
		time.Sleep(time.Millisecond)
	}
	if r, ok := probeCachedWrite(c, 3, ref(2)); !ok || r.Site != dest {
		t.Fatalf("cache route = %+v/%v, want the stale site %d", r, ok, dest)
	}

	before := c.Stats().Commits
	staleBefore := cacheSeries(c, cacheStaleWrites)
	if err := sess.Update([]storage.RowRef{ref(2)}, func(tx systems.Tx) error {
		v, _ := tx.Read(ref(2))
		var n byte
		if len(v) > 0 {
			n = v[0]
		}
		return tx.Write(ref(2), []byte{n + 1})
	}); err != nil {
		t.Fatalf("stale-cache write did not recover: %v", err)
	}
	if got := c.Stats().Commits; got != before+1 {
		t.Fatalf("commits went %d -> %d, want exactly one more", before, got)
	}
	if cacheSeries(c, cacheStaleWrites) == staleBefore {
		t.Fatal("recovery did not go through the stale-cache resubmit path")
	}
	// The resubmit's authoritative answer replaced the stale entry.
	if r, ok := probeCachedWrite(c, 3, ref(2)); !ok || r.Site != other {
		t.Fatalf("cache route after the resubmit = %+v/%v, want the new master %d", r, ok, other)
	}
	if err := sess.Read(func(tx systems.Tx) error {
		v, _ := tx.Read(ref(2))
		if len(v) != 1 || v[0] != 3 {
			return fmt.Errorf("value = %v, want [3] (loaded 2 + one increment)", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// The front's placement-cache series, read back from the cluster registry.
const (
	cacheEntries     = "dynamast_selector_cache_entries"
	cacheRoutes      = "dynamast_selector_cache_routes_total"
	cacheStaleWrites = "dynamast_selector_cache_stale_writes_total"
)

var (
	cacheReads  = obs.L("type", "read")
	cacheWrites = obs.L("type", "write")
)

// cacheSeries reads one placement-cache series (0 without a cache).
func cacheSeries(c *Cluster, name string, labels ...obs.Label) uint64 {
	v, _ := c.Obs().Snapshot().Value(name, labels...)
	return uint64(v)
}

// probeCachedWrite asks the session front what the cache would answer for a
// write, without committing anything.
func probeCachedWrite(c *Cluster, client int, key storage.RowRef) (selector.Route, bool) {
	return c.Group().RouterFor(client).CachedWrite(client, []storage.RowRef{key})
}

// TestShardedRemasterCollidingEpochs is the regression test for remaster
// chains of different router shards that carry the same epoch number (each
// shard allocates its own): a site must not answer the second chain with the
// first one's memoized result, which left it neither taking nor giving up
// ownership and the update retrying until it failed.
func TestShardedRemasterCollidingEpochs(t *testing.T) {
	write := func(sess *Session, parts ...uint64) error {
		ws := make([]storage.RowRef, len(parts))
		for i, p := range parts {
			ws[i] = ref(p * 100)
		}
		return sess.Update(ws, func(tx systems.Tx) error {
			for _, r := range ws {
				if err := tx.Write(r, []byte{1}); err != nil {
					return err
				}
			}
			return nil
		})
	}
	t.Run("two-chains", func(t *testing.T) {
		c := newShardedCluster(t, 3, 4, nil)
		sess := c.Session(1)
		for _, parts := range [][]uint64{{0, 3}, {1, 4}} {
			if err := write(sess, parts...); err != nil {
				t.Fatalf("update of partitions %v: %v", parts, err)
			}
		}
	})
	t.Run("same-shard-pairs", func(t *testing.T) {
		c := newShardedCluster(t, 2, 4, nil)
		g := c.Group()
		buckets := make([][]uint64, g.Shards())
		for p := uint64(0); p < 64; p++ {
			buckets[g.ShardOf(p)] = append(buckets[g.ShardOf(p)], p)
		}
		rng := rand.New(rand.NewSource(1))
		sess := c.Session(1)
		for i := 0; i < 200; i++ {
			b := buckets[rng.Intn(len(buckets))]
			if len(b) < 2 {
				continue
			}
			x := rng.Intn(len(b))
			y := (x + 1 + rng.Intn(len(b)-1)) % len(b)
			if err := write(sess, b[x], b[y]); err != nil {
				t.Fatalf("update %d of partitions {%d, %d}: %v", i, b[x], b[y], err)
			}
		}
	})
}

// TestShardedClusterRegistersRouteMetrics checks, at 1 and 4 shards under
// HA, that the control plane publishes the same routing metric families,
// that the unlabeled routing and remaster series README documents equal
// Group.Metrics (summed over shards), and that neither ever decreases across
// a shard leader's kill and promotion.
func TestShardedClusterRegistersRouteMetrics(t *testing.T) {
	routing := func(name string) bool {
		for _, prefix := range []string{"dynamast_route", "dynamast_remaster", "dynamast_strategy_", "dynamast_selector_"} {
			if strings.HasPrefix(name, prefix) {
				return true
			}
		}
		return false
	}
	families := make(map[int]map[string]bool)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := newShardedCluster(t, 3, shards, func(cfg *Config) { cfg.SelectorLease = 100 * time.Millisecond })
			g := c.Group()
			// Partitions of one shard, so the remasters do not depend on how
			// chains of different shards interact.
			var parts []uint64
			for p := uint64(0); len(parts) < 4; p++ {
				if g.ShardOf(p) == g.ShardOf(0) {
					parts = append(parts, p)
				}
			}
			sess := c.Session(1)
			work := func(n int) {
				for i := 0; i < n; i++ {
					a, b := ref(parts[i%4]*100), ref(parts[(i+1)%4]*100)
					if err := sess.Update([]storage.RowRef{a, b}, func(tx systems.Tx) error {
						if err := tx.Write(a, []byte{1}); err != nil {
							return err
						}
						return tx.Write(b, []byte{1})
					}); err != nil {
						t.Fatal(err)
					}
					if err := sess.Read(func(tx systems.Tx) error { _, _ = tx.Read(a); return nil }); err != nil {
						t.Fatal(err)
					}
				}
			}
			// check asserts the unlabeled series equal Group.Metrics and
			// returns the values.
			series := []struct {
				name   string
				labels []obs.Label
				value  func(selector.Metrics) uint64
			}{
				{"dynamast_route_total", []obs.Label{obs.L("type", "write")}, func(m selector.Metrics) uint64 { return m.WriteTxns }},
				{"dynamast_route_total", []obs.Label{obs.L("type", "read")}, func(m selector.Metrics) uint64 { return m.ReadTxns }},
				{"dynamast_remaster_total", nil, func(m selector.Metrics) uint64 { return m.RemasterTxns }},
				{"dynamast_remaster_partitions_total", nil, func(m selector.Metrics) uint64 { return m.PartsMoved }},
			}
			check := func() []uint64 {
				snap, m := c.Obs().Snapshot(), g.Metrics()
				var out []uint64
				for _, want := range series {
					got, ok := snap.Value(want.name, want.labels...)
					if !ok {
						t.Fatalf("%s%v not registered", want.name, want.labels)
					}
					if got != float64(want.value(m)) {
						t.Fatalf("%s%v = %v, Group.Metrics says %d", want.name, want.labels, got, want.value(m))
					}
					out = append(out, want.value(m))
				}
				return out
			}

			work(20)
			before := check()
			if before[2] == 0 {
				t.Fatal("workload never remastered")
			}
			victim := g.ShardOf(parts[0])
			old := g.Shard(victim)
			c.KillSelectorShard(victim)
			deadline := time.Now().Add(10 * time.Second)
			for g.Shard(victim) == old { // a promotion swaps in a new leader
				if time.Now().After(deadline) {
					t.Fatal("shard leader was not promoted")
				}
				time.Sleep(time.Millisecond)
			}
			work(4)
			after := check()
			for i, want := range series {
				if after[i] < before[i] {
					t.Fatalf("%s%v dropped across the promotion: %d -> %d", want.name, want.labels, before[i], after[i])
				}
			}
			if after[0] <= before[0] {
				t.Fatalf("no writes counted after the promotion (%d -> %d)", before[0], after[0])
			}

			families[shards] = make(map[string]bool)
			for _, sm := range c.Obs().Snapshot().Samples {
				if routing(sm.Name) {
					families[shards][sm.Name] = true
				}
			}
		})
	}
	for name := range families[4] {
		if !families[1][name] {
			t.Errorf("metric family %s registered at 4 shards but not at 1", name)
		}
	}
	for name := range families[1] {
		if !families[4][name] {
			t.Errorf("metric family %s registered at 1 shard but not at 4", name)
		}
	}
}

// TestChaosShardLeaderKill is the sharded control plane's chaos run: the
// same seed-42 fault mix, 4 router shards each holding its own lease, and
// the crash victim is ONE shard's leaseholder. The other three shards must
// keep routing while the victim shard promotes (no global stall), the
// promotion must fence only the victim's partition range, commits must stay
// exactly-once, and no partition may end dual-owned across shards or sites.
func TestChaosShardLeaderKill(t *testing.T) {
	const shardLease = 150 * time.Millisecond
	c, inj, _ := newChaosCluster(t, func(cfg *Config) {
		cfg.SelectorShards = 4
		cfg.SelectorLease = shardLease
	})
	g := c.Group()
	for i := 0; i < 4; i++ {
		if c.SelectorShardHA(i) == nil {
			t.Fatalf("shard %d has no HA under SelectorLease", i)
		}
	}

	const (
		pairs   = 16 // one pair per partition, spread over all 4 shards
		workers = 6
		iters   = 30
	)
	pairRefs := func(p uint64) (storage.RowRef, storage.RowRef) {
		return ref(p * 100), ref(p*100 + 50)
	}
	shardOfPair := func(p uint64) int { return g.ShardOf(p) }

	victimShard := shardOfPair(0)
	otherPair := uint64(0)
	for p := uint64(0); p < pairs; p++ {
		if shardOfPair(p) != victimShard {
			otherPair = p
			break
		}
	}
	if shardOfPair(otherPair) == victimShard {
		t.Fatal("all pair partitions hash to one shard — widen the pair range")
	}

	setup := c.Session(500)
	for p := uint64(0); p < pairs; p++ {
		a, b := pairRefs(p)
		if err := setup.Update([]storage.RowRef{a, b}, func(tx systems.Tx) error {
			if err := tx.Write(a, []byte{1}); err != nil {
				return err
			}
			return tx.Write(b, []byte{1})
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitQuiesced(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var stopOnce sync.Once
	stopAll := func() { stopOnce.Do(func() { close(stop) }) }
	violations := make(chan string, 64)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			sess := c.Session(w)
			for i := 0; i < iters; i++ {
				p := uint64(rng.Intn(pairs))
				a, b := pairRefs(p)
				err := sess.Update([]storage.RowRef{a, b}, func(tx systems.Tx) error {
					av, _ := tx.Read(a)
					var n byte
					if len(av) > 0 {
						n = av[0]
					}
					if err := tx.Write(a, []byte{n + 1}); err != nil {
						return err
					}
					return tx.Write(b, []byte{n + 1})
				})
				if err != nil {
					violations <- fmt.Sprintf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			sess := c.Session(100 + r)
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := uint64(rng.Intn(pairs))
				a, b := pairRefs(p)
				err := sess.Read(func(tx systems.Tx) error {
					av, _ := tx.Read(a)
					bv, _ := tx.Read(b)
					var an, bn byte
					if len(av) > 0 {
						an = av[0]
					}
					if len(bv) > 0 {
						bn = bv[0]
					}
					if an != bn {
						return fmt.Errorf("pair %d torn: %d != %d", p, an, bn)
					}
					return nil
				})
				if err != nil {
					violations <- fmt.Sprintf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}

	// Kill the victim shard's leaseholder once a third of the workload is in.
	killTarget := uint64(pairs + workers*iters/3)
	killDeadline := time.Now().Add(30 * time.Second)
	for c.Stats().Commits < killTarget {
		if time.Now().After(killDeadline) {
			stopAll()
			t.Fatal("workload never reached the kill threshold")
		}
		time.Sleep(time.Millisecond)
	}
	leaders := make([]*selector.Selector, 4)
	for i := range leaders {
		leaders[i] = g.Shard(i)
	}
	oldLeader := leaders[victimShard]
	killedAt := time.Now()
	commitsAtKill := c.Stats().Commits
	if killed := c.KillSelectorShard(victimShard); killed != 0 {
		stopAll()
		t.Fatalf("killed shard %d node %d, want initial leader 0", victimShard, killed)
	}

	// The victim shard's standby must promote within the lease-bounded
	// window.
	for g.Shard(victimShard) == oldLeader { // a promotion swaps in a new leader
		if time.Since(killedAt) > 10*time.Second {
			stopAll()
			t.Fatal("victim shard never promoted after the leader kill")
		}
		time.Sleep(time.Millisecond)
	}
	promotionWindow := time.Since(killedAt)
	commitsDuringPromotion := c.Stats().Commits - commitsAtKill
	t.Logf("shard %d failover window: %v (lease %v), %d commits flowed during it",
		victimShard, promotionWindow, shardLease, commitsDuringPromotion)
	if bound := 2*shardLease + 500*time.Millisecond; promotionWindow > bound {
		stopAll()
		t.Fatalf("promotion took %v, want < %v (~2x lease)", promotionWindow, bound)
	}

	// No global stall: the other shards kept committing through the victim's
	// leaderless window (the workload is still mid-flight at the kill
	// threshold, and three of four shards never lost their router).
	writersStillRunning := c.Stats().Commits < uint64(pairs+workers*iters)
	if commitsDuringPromotion == 0 && writersStillRunning {
		stopAll()
		t.Fatal("no commits during the victim shard's promotion — the whole control plane stalled")
	}

	// Only the victim shard changed leadership; a shard kill is not a global
	// event.
	for i := 0; i < 4; i++ {
		if i == victimShard {
			continue
		}
		if g.Shard(i) != leaders[i] {
			stopAll()
			t.Fatalf("shard %d promoted after shard %d's kill", i, victimShard)
		}
	}

	// The deposed leader is fenced for its own range.
	if !oldLeader.Deposed() {
		stopAll()
		t.Fatal("killed shard leader not deposed")
	}
	if _, err := oldLeader.AllocEpoch(); !errors.Is(err, selector.ErrNoLeader) {
		stopAll()
		t.Fatalf("deposed shard leader allocated a remaster epoch: %v", err)
	}
	if g.Shard(victimShard) == oldLeader {
		stopAll()
		t.Fatal("group still exposes the deposed selector as the shard leader")
	}

	// All writers finish despite the shard crash.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	writersDone := make(chan struct{})
	go func() {
		for c.Stats().Commits < pairs+workers*iters {
			select {
			case <-done:
				close(writersDone)
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
		stopAll()
		<-done
		close(writersDone)
	}()
	select {
	case v := <-violations:
		stopAll()
		t.Fatalf("consistency violation: %s", v)
	case <-writersDone:
	case <-time.After(60 * time.Second):
		t.Fatal("workload hung after the shard leader kill")
	}
	select {
	case v := <-violations:
		t.Fatalf("consistency violation: %s", v)
	default:
	}

	// The promoted shard leader runs full remaster chains over its range,
	// and the untouched shards still route cross-shard sets with it.
	post := c.Session(901)
	aV, _ := pairRefs(0)         // victim shard's range
	aO, _ := pairRefs(otherPair) // another shard's range
	for i := 0; i < 8; i++ {
		if err := post.Update([]storage.RowRef{aV, aO}, func(tx systems.Tx) error {
			av, _ := tx.Read(aV)
			if err := tx.Write(aV, av); err != nil {
				return err
			}
			ov, _ := tx.Read(aO)
			return tx.Write(aO, ov)
		}); err != nil {
			t.Fatalf("post-promotion cross-shard update %d: %v", i, err)
		}
	}

	// Exactly-once across the shard leadership change.
	if err := c.WaitQuiesced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	wantCommits := uint64(pairs + workers*iters + 8)
	if commits := c.Stats().Commits; commits != wantCommits {
		t.Fatalf("commits = %d, want %d", commits, wantCommits)
	}
	audit := c.Session(999)
	for p := uint64(0); p < pairs; p++ {
		a, b := pairRefs(p)
		if err := audit.Read(func(tx systems.Tx) error {
			av, _ := tx.Read(a)
			bv, _ := tx.Read(b)
			var an, bn byte
			if len(av) > 0 {
				an = av[0]
			}
			if len(bv) > 0 {
				bn = bv[0]
			}
			if an != bn {
				return fmt.Errorf("final pair %d torn: %d != %d", p, an, bn)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Unique per-partition ownership across shards and sites.
	for p := uint64(0); p < pairs; p++ {
		owners, ownerSite := 0, -1
		for i, s := range c.Sites() {
			if s.Masters(p) {
				owners++
				ownerSite = i
			}
		}
		if owners != 1 {
			t.Fatalf("partition %d has %d owning sites, want exactly 1", p, owners)
		}
		if got := g.MasterOf(p); got != ownerSite {
			t.Fatalf("partition %d: group says %d, sites say %d", p, got, ownerSite)
		}
	}
	for si := 0; si < 4; si++ {
		for site := range c.Sites() {
			for _, p := range g.Shard(si).MasteredBy(site) {
				if g.ShardOf(p) != si {
					t.Fatalf("shard %d tracks foreign partition %d after failover", si, p)
				}
			}
		}
	}

	// The run exercised what it claims.
	if inj.InjectedTotal() == 0 {
		t.Fatal("no faults were injected")
	}
	if g.Shard(victimShard) == oldLeader {
		t.Fatal("victim shard leadership still at the killed node")
	}
	var leaseMsgs uint64
	for _, st := range c.Network().Stats() {
		if st.Category == transport.CatLease {
			leaseMsgs = st.Messages
		}
	}
	if leaseMsgs == 0 {
		t.Fatal("no lease-category traffic recorded")
	}
}
