package selector

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynamast/internal/obs"
	"dynamast/internal/sitemgr"
	"dynamast/internal/storage"
	"dynamast/internal/vclock"
	"dynamast/internal/wal"
)

// newShardedGroup builds m replicating data sites fronted by an n-shard
// router group with the given standbys per shard (no HA). Every partition
// starts mastered at site 0, as in newCluster.
func newShardedGroup(t *testing.T, m, shards, standbys int, stats StatsConfig) (*Group, []*sitemgr.Site) {
	t.Helper()
	b := wal.NewBroker(m)
	sites := make([]*sitemgr.Site, m)
	dsites := make([]DataSite, m)
	for i := 0; i < m; i++ {
		s, err := sitemgr.New(sitemgr.Config{
			SiteID: i, Sites: m, Broker: b,
			Partitioner: partitionBy100,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Store().CreateTable("t")
		for p := uint64(0); p < 50; p++ {
			s.SetMaster(p, i == 0)
		}
		sites[i], dsites[i] = s, s
	}
	for _, s := range sites {
		s.Start()
	}
	repls := make([]*Replicated, shards)
	for i := 0; i < shards; i++ {
		sel, err := New(Config{
			Sites:       dsites,
			Partitioner: partitionBy100,
			Weights:     YCSBWeights(),
			Stats:       stats,
			Seed:        int64(i),
			Shard:       i,
			Shards:      shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		repls[i] = NewReplicated(sel, standbys, nil)
	}
	g, err := NewGroup(GroupConfig{Shards: repls, GossipInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		g.Stop()
		b.Close()
		for _, s := range sites {
			s.Stop()
		}
	})
	return g, sites
}

// shardBuckets splits partitions [0, count) by owning shard.
func shardBuckets(count uint64, shards int) [][]uint64 {
	out := make([][]uint64, shards)
	for p := uint64(0); p < count; p++ {
		si := RouterShardOf(p, shards)
		out[si] = append(out[si], p)
	}
	return out
}

func TestRouterShardOfProperties(t *testing.T) {
	// Pure and bounded: identical inputs map to identical shards in [0, n).
	for _, n := range []int{1, 2, 3, 4, 7, 16, MaxRouterShards} {
		for p := uint64(0); p < 10_000; p += 37 {
			si := RouterShardOf(p, n)
			if si < 0 || si >= n {
				t.Fatalf("RouterShardOf(%d, %d) = %d out of range", p, n, si)
			}
			if again := RouterShardOf(p, n); again != si {
				t.Fatalf("RouterShardOf(%d, %d) not pure: %d then %d", p, n, si, again)
			}
			if got := sitemgr.RouterShard(p, n); got != si {
				t.Fatalf("selector and sitemgr disagree on shard of %d/%d: %d vs %d", p, n, si, got)
			}
		}
	}
	// n <= 1 always shard 0.
	if RouterShardOf(123, 1) != 0 || RouterShardOf(123, 0) != 0 {
		t.Fatal("single-shard mapping must be 0")
	}
	// The multiply-shift spreads a dense partition range roughly evenly: no
	// shard of 4 may own more than half of 1024 consecutive partitions.
	buckets := shardBuckets(1024, 4)
	for si, parts := range buckets {
		if len(parts) == 0 || len(parts) > 512 {
			t.Fatalf("shard %d owns %d of 1024 partitions — degenerate spread", si, len(parts))
		}
	}
}

func TestGroupSingleShardPassThrough(t *testing.T) {
	g, _ := newShardedGroup(t, 2, 1, 0, StatsConfig{HistorySize: 128})
	if g.cache != nil {
		t.Fatal("single-shard group built a placement cache")
	}
	// The router is the group's front with no cache: every call takes the
	// group's routing.
	front := g.RouterFor(1)
	if front.c != nil {
		t.Fatal("one-node front carries a placement cache")
	}
	if _, ok := front.CachedWrite(1, []storage.RowRef{ref(1)}); ok {
		t.Fatal("one-node front served a write without its selector")
	}
	r, err := front.RouteWrite(1, []storage.RowRef{ref(1), ref(150)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Site != 0 || r.Remastered {
		t.Fatalf("route = %+v, want site 0 without remastering", r)
	}
	if g.crossWrites.Load() != 0 {
		t.Fatal("single-shard group counted a cross-shard write")
	}
}

func TestGroupCrossShardWriteRemasters(t *testing.T) {
	g, sites := newShardedGroup(t, 2, 2, 0, StatsConfig{HistorySize: 128})
	buckets := shardBuckets(50, 2)
	pa, pb := buckets[0][0], buckets[1][0]

	// Split mastership across both sites AND both shards: pb moves to site 1
	// behind a direct site-to-site transfer plus owner-shard registration.
	rel, err := sites[0].Release([]uint64{pb}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sites[1].Grant([]uint64{pb}, rel, 0, 0); err != nil {
		t.Fatal(err)
	}
	g.ShardFor(pb).RegisterPartitionEpoch(pb, 1, 0)

	ws := []storage.RowRef{ref(pa*100 + 1), ref(pb*100 + 1)}
	r, err := g.RouterFor(7).RouteWrite(7, ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Remastered || r.PartsMoved == 0 {
		t.Fatalf("cross-shard split-master route did not remaster: %+v", r)
	}
	if g.crossWrites.Load() != 1 {
		t.Fatalf("cross-shard writes = %d, want 1", g.crossWrites.Load())
	}
	// One destination for the whole set, agreed by both shards and the sites.
	if got := g.MasterOf(pa); got != r.Site {
		t.Fatalf("partition %d mastered at %d, route said %d", pa, got, r.Site)
	}
	if got := g.MasterOf(pb); got != r.Site {
		t.Fatalf("partition %d mastered at %d, route said %d", pb, got, r.Site)
	}
	for _, p := range []uint64{pa, pb} {
		owners := 0
		for _, s := range sites {
			if s.Masters(p) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("partition %d has %d site owners after cross-shard remaster, want 1", p, owners)
		}
	}
	// Each shard's chain ran under its own allocator: the moved partitions'
	// epochs advanced on their owning shards.
	if g.CurrentEpoch() == 0 {
		t.Fatal("no epoch was allocated for the cross-shard remaster")
	}
	// Shard maps never leak foreign partitions: every partition a shard
	// masters anywhere hashes back to that shard.
	for si := 0; si < g.Shards(); si++ {
		for site := range sites {
			for _, p := range g.Shard(si).MasteredBy(site) {
				if g.ShardOf(p) != si {
					t.Fatalf("shard %d tracks foreign partition %d (owner shard %d)", si, p, g.ShardOf(p))
				}
			}
		}
	}
	// Re-routing the now co-located set takes the single-master fast path.
	r2, err := g.RouterFor(7).RouteWrite(7, ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Remastered || r2.Site != r.Site {
		t.Fatalf("second route = %+v, want fast path at site %d", r2, r.Site)
	}
}

// TestCrossShardCoAccessMatchesReference is the sharded-stats golden test:
// a workload whose co-accessed partitions land on different shards must
// record every pair on BOTH owning shards' stripes, so that querying any
// partition's owner shard reproduces exactly what one unsharded tracker fed
// the full stream would report. The workload alternates shards between
// consecutive writes (with spanning sets mixed in), so the one-hop
// prev-owner delivery of dispatchRecord covers every tracker.
func TestCrossShardCoAccessMatchesReference(t *testing.T) {
	cfg := StatsConfig{HistorySize: 4096, Stripes: 4, InterWindow: time.Hour}
	g, _ := newShardedGroup(t, 2, 2, 0, cfg)
	reference := NewStats(cfg)

	buckets := shardBuckets(50, 2)
	rng := rand.New(rand.NewSource(42))
	now := time.Unix(1_000_000, 0)
	pick := func(si, n int) []uint64 {
		parts := make([]uint64, 0, n)
		for len(parts) < n {
			p := buckets[si][rng.Intn(len(buckets[si]))]
			dup := false
			for _, q := range parts {
				if q == p {
					dup = true
				}
			}
			if !dup {
				parts = append(parts, p)
			}
		}
		return parts
	}

	const clients, writes = 8, 60
	last := make([]int, clients) // last single-shard side per client
	for c := 0; c < clients; c++ {
		// First write spans both shards so every tracker is warm from the
		// client's first sample.
		parts := append(pick(0, 1+rng.Intn(2)), pick(1, 1+rng.Intn(2))...)
		g.dispatchRecord(c, parts, now)
		reference.RecordWrite(c, parts, now)
		last[c] = -1 // spanning
	}
	for i := 0; i < writes; i++ {
		now = now.Add(time.Millisecond)
		c := rng.Intn(clients)
		var parts []uint64
		if rng.Intn(3) == 0 {
			parts = append(pick(0, 1), pick(1, 1)...) // spanning set
			last[c] = -1
		} else {
			// Strict alternation: never two consecutive same-shard-only
			// writes, so the one-hop delivery keeps both trackers exact.
			side := 0
			if last[c] == 0 {
				side = 1
			} else if last[c] == -1 {
				side = rng.Intn(2)
			}
			parts = pick(side, 1+rng.Intn(2))
			last[c] = side
		}
		g.dispatchRecord(c, parts, now)
		reference.RecordWrite(c, parts, now)
	}
	if g.crossHints.Load() == 0 {
		t.Fatal("workload crossed shards but no inter-shard hints were exchanged")
	}

	for p := uint64(0); p < 50; p++ {
		owner := g.ShardFor(p).stats
		if got, want := owner.AccessWeight(p), reference.AccessWeight(p); got != want {
			t.Fatalf("AccessWeight(%d) on owner shard = %g, reference %g", p, got, want)
		}
		if got, want := owner.occurrencesOf(p), reference.occurrencesOf(p); got != want {
			t.Fatalf("occurrencesOf(%d) on owner shard = %g, reference %g", p, got, want)
		}
		for _, intra := range []bool{true, false} {
			got, want := coAccessProbs(owner, p, intra), coAccessProbs(reference, p, intra)
			if len(got) != len(want) {
				t.Fatalf("CoAccess(%d, intra=%v): owner shard has %d pairs, reference %d (%v vs %v)",
					p, intra, len(got), len(want), got, want)
			}
			for d2, wp := range want {
				if gp, ok := got[d2]; !ok || math.Abs(gp-wp) > 1e-12 {
					t.Fatalf("CoAccess(%d->%d, intra=%v) = %g on owner shard, reference %g", p, d2, intra, gp, wp)
				}
			}
		}
	}
}

func TestPlacementCacheIngestMonotonic(t *testing.T) {
	g, _ := newShardedGroup(t, 2, 2, 0, StatsConfig{HistorySize: 128})
	c := g.cache
	if c == nil {
		t.Fatal("sharded group built no cache")
	}
	// Partition 77 exists nowhere, so gossip never touches it.
	c.ingest([]uint64{77}, 1, 10)
	if site, ok := c.single([]uint64{77}); !ok || site != 1 {
		t.Fatalf("after ingest: owner = %d/%v, want 1", site, ok)
	}
	// A straggler below the installed epoch never rolls the cache back.
	c.ingest([]uint64{77}, 0, 9)
	if site, _ := c.single([]uint64{77}); site != 1 {
		t.Fatalf("stale delta rolled the cache back to site %d", site)
	}
	// An equal-or-newer epoch wins.
	c.ingest([]uint64{77}, 0, 11)
	if site, _ := c.single([]uint64{77}); site != 0 {
		t.Fatalf("newer delta did not install: owner %d, want 0", site)
	}
	// An authoritative answer overrides regardless of epoch, and the next
	// delta at the installed epoch still wins over it.
	c.learn([]uint64{77}, 1)
	if site, _ := c.single([]uint64{77}); site != 1 {
		t.Fatalf("learned answer not installed: owner %d, want 1", site)
	}
	c.ingest([]uint64{77}, 0, 11)
	if site, _ := c.single([]uint64{77}); site != 0 {
		t.Fatalf("delta at the installed epoch lost to a learned answer: owner %d", site)
	}
}

func TestCachedRouterServesAndFallsBack(t *testing.T) {
	g, _ := newShardedGroup(t, 2, 2, 0, StatsConfig{HistorySize: 128})
	front, c := g.RouterFor(3), g.cache

	// Nothing routed yet: the partitions do not exist on any shard, so the
	// cache misses and the caller must fall back to the routers.
	if _, ok := front.CachedWrite(3, []storage.RowRef{ref(1)}); ok {
		t.Fatal("cache served a write for a partition it never saw")
	}
	if c.misses.Load() == 0 {
		t.Fatal("cache miss not counted")
	}

	// Materialize the partition through the routers, then pull placement.
	if _, err := front.RouteWrite(3, []storage.RowRef{ref(1)}, nil); err != nil {
		t.Fatal(err)
	}
	c.gossip()
	route, ok := front.CachedWrite(3, []storage.RowRef{ref(1)})
	if !ok || route.Site != 0 {
		t.Fatalf("cached write route = %+v/%v, want site 0 hit", route, ok)
	}
	if c.writeRoutes.Load() == 0 {
		t.Fatal("cache write hit not counted")
	}

	// Reads under full replication are always cache-grade.
	if _, ok := front.CachedRead(3, nil, []uint64{0}); !ok {
		t.Fatal("full-replication read missed the cache")
	}
	if c.readRoutes.Load() == 0 {
		t.Fatal("cache read hit not counted")
	}

	// The resubmit path counts against the cache and routes authoritatively.
	before := c.staleWrites.Load()
	if _, err := front.Resubmit(3, []storage.RowRef{ref(1)}, nil, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if c.staleWrites.Load() != before+1 {
		t.Fatal("Resubmit did not count a stale cache write")
	}
}

// TestShardedRoutingThroughputScales asserts the tentpole's point: four
// router shards sustain materially higher aggregate routing throughput than
// one. Gated behind DYNAMAST_BENCH_SMOKE (CI's bench-smoke step) and a
// multi-core box — a 1-2 core runner cannot demonstrate control-plane
// parallelism.
func TestShardedRoutingThroughputScales(t *testing.T) {
	if os.Getenv("DYNAMAST_BENCH_SMOKE") == "" {
		t.Skip("set DYNAMAST_BENCH_SMOKE=1 to run the shard scaling smoke test")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("%d CPUs cannot exercise 4-way control-plane parallelism", runtime.NumCPU())
	}
	const parts = 256
	routesPerSec := func(shards int) float64 {
		sites := make([]DataSite, 4)
		for i := range sites {
			sites[i] = &benchSite{id: i}
		}
		g := newFakeGroup(t, sites, shards, YCSBWeights(), StatsConfig{})
		front := g.RouterFor(0)
		for p := uint64(0); p < parts; p++ {
			if _, err := front.RouteWrite(0, []storage.RowRef{{Table: "t", Key: p * 100}}, nil); err != nil {
				t.Fatal(err)
			}
		}
		buckets := shardBuckets(parts, shards)
		workers := runtime.GOMAXPROCS(0)
		var total atomic.Uint64
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				bucket := buckets[w%shards]
				client := 1 + w
				i, n := uint64(w), uint64(0)
				ws := make([]storage.RowRef, 3)
				for {
					select {
					case <-stop:
						total.Add(n)
						return
					default:
					}
					i++
					base := int(i*7) % len(bucket)
					ws[0] = storage.RowRef{Table: "t", Key: bucket[base] * 100}
					ws[1] = storage.RowRef{Table: "t", Key: bucket[(base+1)%len(bucket)] * 100}
					ws[2] = storage.RowRef{Table: "t", Key: bucket[(base+2)%len(bucket)] * 100}
					if _, err := front.RouteWrite(client, ws, nil); err != nil {
						t.Error(err)
						total.Add(n)
						return
					}
					n++
				}
			}(w)
		}
		const window = 500 * time.Millisecond
		time.Sleep(window)
		close(stop)
		wg.Wait()
		return float64(total.Load()) / window.Seconds()
	}
	single := routesPerSec(1)
	sharded := routesPerSec(4)
	ratio := sharded / single
	t.Logf("aggregate routes/sec: 1 shard %.0f, 4 shards %.0f (%.2fx)", single, sharded, ratio)
	if ratio < 1.8 {
		t.Fatalf("4-shard aggregate routing throughput only %.2fx single-shard, want >= 1.8x", ratio)
	}
}

// newBenchGroup builds an n-shard group over no-op data sites with pre-
// materialized partitions for routing throughput benchmarks.
func newBenchGroup(b *testing.B, m, shards int, parts uint64) *Group {
	b.Helper()
	sites := make([]DataSite, m)
	for i := range sites {
		sites[i] = &benchSite{id: i}
	}
	g := newFakeGroup(b, sites, shards, YCSBWeights(), StatsConfig{})
	for p := uint64(0); p < parts; p++ {
		if _, err := g.RouterFor(0).RouteWrite(0, []storage.RowRef{{Table: "t", Key: p * 100}}, nil); err != nil {
			b.Fatal(err)
		}
	}
	return g
}

// BenchmarkRouteWriteParallelSharded measures aggregate routing throughput
// of the sharded control plane under concurrent client load. Each client
// sticks to one shard's partition-range (the common case: remaster chains
// keep co-accessed partitions together), so shards route with no shared
// serialization point between them.
func BenchmarkRouteWriteParallelSharded(b *testing.B) {
	const parts = 256
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			g := newBenchGroup(b, 4, shards, parts)
			buckets := shardBuckets(parts, shards)
			var nextClient atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				client := int(nextClient.Add(1))
				bucket := buckets[client%shards]
				i := uint64(client)
				ws := make([]storage.RowRef, 3)
				for pb.Next() {
					i++
					base := int(i*7) % len(bucket)
					ws[0] = storage.RowRef{Table: "t", Key: bucket[base] * 100}
					ws[1] = storage.RowRef{Table: "t", Key: bucket[(base+1)%len(bucket)] * 100}
					ws[2] = storage.RowRef{Table: "t", Key: bucket[(base+2)%len(bucket)] * 100}
					if _, err := g.RouterFor(client).RouteWrite(client, ws, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// TestMasteredByDeterministic pins failover's re-grant order: two groups
// holding the same placement, entered in different orders, list a site's
// partitions identically and in ascending order.
func TestMasteredByDeterministic(t *testing.T) {
	const m, shards, parts = 3, 2, 500
	sites := make([]DataSite, m)
	for i := range sites {
		sites[i] = &benchSite{id: i, svv: vclock.New(m)}
	}
	groups := [2]*Group{
		newFakeGroup(t, sites, shards, YCSBWeights(), StatsConfig{}),
		newFakeGroup(t, sites, shards, YCSBWeights(), StatsConfig{}),
	}
	for gi, g := range groups {
		order := rand.New(rand.NewSource(int64(gi))).Perm(parts)
		for _, p := range order {
			g.RegisterPartitionEpoch(uint64(p)*7919, p%m, 0)
		}
	}
	for site := 0; site < m; site++ {
		a, b := groups[0].MasteredBy(site), groups[1].MasteredBy(site)
		if len(a) == 0 || !slices.Equal(a, b) {
			t.Fatalf("site %d: MasteredBy = %v and %v, want equal and non-empty", site, a, b)
		}
		if !slices.IsSorted(a) {
			t.Fatalf("site %d: MasteredBy = %v, want ascending", site, a)
		}
	}
}

// TestPeekMasterTakesNoLock pins the lock-free partition lookup: while the
// partition map's writer mutex is held, the master of an existing partition
// is still readable.
func TestPeekMasterTakesNoLock(t *testing.T) {
	sites := []DataSite{&benchSite{id: 0, svv: vclock.New(2)}, &benchSite{id: 1, svv: vclock.New(2)}}
	sel := newFakeGroup(t, sites, 1, YCSBWeights(), StatsConfig{}).Shard(0)
	sel.RegisterPartitionEpoch(5, 1, 0)
	sel.partMu.Lock()
	defer sel.partMu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if m, ok := sel.peekMaster(5); !ok || m != 1 {
			t.Errorf("peekMaster(5) = %d, %v, want 1, true", m, ok)
		}
		if m := sel.MasterOf(5); m != 1 {
			t.Errorf("MasterOf(5) = %d, want 1", m)
		}
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("a partition lookup blocked on the partition map's writer mutex")
	}
}
