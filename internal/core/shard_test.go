package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dynamast/internal/obs"
	"dynamast/internal/selector"
	"dynamast/internal/sitemgr"
	"dynamast/internal/storage"
	"dynamast/internal/systems"
	"dynamast/internal/transport"
)

// Sharded selector control plane: end-to-end coverage of WithSelectorShards.
// The cluster splits routing, statistics, placement and (under HA) leases
// across N independent router shards, and sessions route reads and
// single-sited writes locally, with zero selector RPCs in steady state.

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
// begin_transaction traffic local routing eliminates.
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
	if _, ok := c.Obs().Snapshot().Value(cacheRoutes, cacheWrites); ok {
		t.Fatal("single-shard cluster routes locally")
	}
}

func TestShardedClusterEndToEnd(t *testing.T) {
	c := newShardedCluster(t, 3, 4, nil)
	if got := c.SelectorShardCount(); got != 4 {
		t.Fatalf("shard count = %d, want 4", got)
	}
	if _, ok := c.Obs().Snapshot().Value(cacheRoutes, cacheWrites); !ok {
		t.Fatal("sharded cluster did not enable local routing")
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

// TestCachedRoutingZeroRouterRPCs counter-verifies the sharded steady
// state: session reads — and single-partition writes to partitions a router
// has seen — route locally with zero CatRoute messages.
func TestCachedRoutingZeroRouterRPCs(t *testing.T) {
	c := newShardedCluster(t, 3, 4, nil)

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

	// Steady-state reads: zero router RPCs, every one routed locally.
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
		t.Fatalf("%d of 50 reads routed locally", d)
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
		t.Fatalf("%d CatRoute messages during local writes, want 0", d)
	}
	if d := cacheSeries(c, cacheRoutes, cacheWrites) - writesBefore; d != 10 {
		t.Fatalf("%d of 10 writes routed locally", d)
	}
}

// TestOneNodeControlPlaneRoutesEveryTxn pins the paper's §IV round trip on a
// one-node control plane: every update and every read asks the router, one
// CatRoute request and one reply each.
func TestOneNodeControlPlaneRoutesEveryTxn(t *testing.T) {
	c := newShardedCluster(t, 2, 1, nil)
	sess := c.Session(2)
	before := routeMessages(c)
	for i := 0; i < 10; i++ {
		key := ref(uint64(i) * 100)
		if err := sess.Update([]storage.RowRef{key}, func(tx systems.Tx) error {
			return tx.Write(key, []byte{byte(i)})
		}); err != nil {
			t.Fatal(err)
		}
		if err := sess.Read(func(tx systems.Tx) error {
			_, _ = tx.Read(key)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if d := routeMessages(c) - before; d != 40 {
		t.Fatalf("%d CatRoute messages for 10 updates and 10 reads, want 40", d)
	}
}

// TestStaleCacheWriteRecovers drives a stale local write route on every
// control-plane topology that routes locally.
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

// staleCacheWriteRecovers stops a remaster chain in the one window in which
// a local write route is stale: the chain holds its partitions' exclusive
// locks while its release waits for a writer at the source. A session write
// to the releasing partition routes locally to the source, which rejects it;
// the retry routes through the router shard and waits there for the chain.
// Once the writer leaves, the chain completes and the session commits
// exactly once at the new master.
func staleCacheWriteRecovers(t *testing.T, c *Cluster) {
	t.Helper()
	g := c.Group()
	sites := c.Sites()

	// Two partitions mastered at different sites.
	a, b := uint64(0), uint64(1)
	for g.MasterOf(b) == g.MasterOf(a) {
		b++
	}
	masters := map[uint64]int{a: g.MasterOf(a), b: g.MasterOf(b)}

	// A writer in flight on each: whichever partition the chain moves, its
	// release waits for that partition's writer.
	writers := make([]*sitemgr.Txn, 0, 2)
	for _, p := range []uint64{a, b} {
		tx, err := sites[masters[p]].Begin(nil, []storage.RowRef{ref(p*100 + 99)})
		if err != nil {
			t.Fatal(err)
		}
		writers = append(writers, tx)
	}
	chain := make(chan error, 1)
	go func() {
		_, err := g.RouterFor(9).RouteWrite(9, []storage.RowRef{ref(a * 100), ref(b * 100)}, nil)
		chain <- err
	}()

	// The moving partition is the one whose master refuses new writers.
	var moving uint64
	for found := false; !found; {
		for _, p := range []uint64{a, b} {
			tx, err := sites[masters[p]].Begin(nil, []storage.RowRef{ref(p*100 + 98)})
			switch {
			case errors.Is(err, sitemgr.ErrReleasing):
				moving, found = p, true
			case err != nil:
				t.Fatal(err)
			default:
				tx.Abort()
			}
		}
		select {
		case err := <-chain:
			t.Fatalf("chain returned (%v) without waiting for a writer", err)
		default:
		}
		runtime.Gosched()
	}

	key := ref(moving*100 + 2)
	sess := c.Session(3)
	before := c.Stats().Commits
	staleBefore := cacheSeries(c, cacheStaleWrites)
	done := make(chan error, 1)
	go func() {
		done <- sess.Update([]storage.RowRef{key}, func(tx systems.Tx) error {
			v, _ := tx.Read(key)
			var n byte
			if len(v) > 0 {
				n = v[0]
			}
			return tx.Write(key, []byte{n + 1})
		})
	}()
	for cacheSeries(c, cacheStaleWrites) == staleBefore {
		select {
		case err := <-done:
			t.Fatalf("session write returned (%v) without a retry", err)
		default:
		}
		runtime.Gosched()
	}
	for _, tx := range writers {
		tx.Abort()
	}
	if err := <-chain; err != nil {
		t.Fatalf("remaster chain: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("stale local write did not recover: %v", err)
	}
	if got := c.Stats().Commits; got != before+1 {
		t.Fatalf("commits went %d -> %d, want exactly one more", before, got)
	}
	if got := g.MasterOf(moving); got == masters[moving] {
		t.Fatalf("partition %d still mastered at %d after the chain", moving, got)
	}
	if r, ok := probeLocalWrite(c, 3, key); !ok || r.Site != g.MasterOf(moving) {
		t.Fatalf("local route after the chain = %+v/%v, want the new master %d", r, ok, g.MasterOf(moving))
	}
	if err := sess.Read(func(tx systems.Tx) error {
		v, _ := tx.Read(key)
		if want := byte(moving*100+2) + 1; len(v) != 1 || v[0] != want {
			return fmt.Errorf("value = %v, want [%d] (loaded value + one increment)", v, want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// The front's local-routing series, read back from the cluster registry.
const (
	cacheRoutes      = "dynamast_selector_cache_routes_total"
	cacheStaleWrites = "dynamast_selector_cache_stale_writes_total"
)

var (
	cacheReads  = obs.L("type", "read")
	cacheWrites = obs.L("type", "write")
)

// cacheSeries reads one local-routing series (0 on a one-node control
// plane).
func cacheSeries(c *Cluster, name string, labels ...obs.Label) uint64 {
	v, _ := c.Obs().Snapshot().Value(name, labels...)
	return uint64(v)
}

// probeLocalWrite asks the session front where it would route a write
// locally, without committing anything.
func probeLocalWrite(c *Cluster, client int, key storage.RowRef) (selector.Route, bool) {
	return c.Group().RouterFor(client).LocalWrite(client, []storage.RowRef{key})
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
