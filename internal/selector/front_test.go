package selector

import (
	"testing"

	"dynamast/internal/obs"
	"dynamast/internal/storage"
)

// routeLikeSession routes a write the way core.Session does on a first
// attempt: from the front's cache when it can, else authoritatively.
func routeLikeSession(t *testing.T, front *Front, client int, ws []storage.RowRef) (Route, bool) {
	t.Helper()
	if r, ok := front.CachedWrite(client, ws); ok {
		return r, true
	}
	r, err := front.Write(client, ws, nil, obs.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	return r, false
}

func TestReplicatedRouterAssignment(t *testing.T) {
	stats := StatsConfig{HistorySize: 128}
	// One shard, no standbys: a one-node control plane, no cache.
	g0, _ := newShardedGroup(t, 2, 1, 0, stats)
	if g0.Cache() != nil {
		t.Fatal("one-node control plane built a placement cache")
	}
	if g0.RouterFor(0) != g0.RouterFor(1) {
		t.Fatal("clients were handed different fronts")
	}
	// A standby tier makes the control plane multi-node: the front caches.
	g1, _ := newShardedGroup(t, 2, 1, 2, stats)
	if g1.Repl(0).Standbys() != 2 {
		t.Fatal("standby count")
	}
	if g1.Cache() == nil || g1.RouterFor(3).c != g1.Cache() {
		t.Fatal("standby tier did not give the front a placement cache")
	}
}

func TestReplicaFastPathAvoidsMaster(t *testing.T) {
	g, _ := newShardedGroup(t, 2, 1, 1, StatsConfig{HistorySize: 128})
	front := g.RouterFor(1)

	// The first write materializes partition 0 through the selector, whose
	// delta feed caches it; the second is served from the cache.
	ws := []storage.RowRef{ref(1), ref(50)}
	if _, cached := routeLikeSession(t, front, 1, ws); cached {
		t.Fatal("cache served a partition no router had seen")
	}
	writes := g.Metrics().WriteTxns
	route, cached := routeLikeSession(t, front, 1, ws)
	if !cached || route.Site != 0 || route.Remastered {
		t.Fatalf("route = %+v cached=%v, want a cached route to site 0", route, cached)
	}
	if g.Cache().Size() == 0 {
		t.Fatal("cache holds nothing")
	}
	if g.Metrics().RemasterTxns != 0 {
		t.Fatal("fast path reached the selector's remastering")
	}
	// The cached route is still counted.
	if g.Metrics().WriteTxns != writes+1 {
		t.Fatal("cache-routed write not counted")
	}
}

func TestReplicaForwardsSplitWriteSets(t *testing.T) {
	g, sites := newShardedGroup(t, 2, 1, 1, StatsConfig{HistorySize: 128})
	front, sel := g.RouterFor(1), g.Shard(0)
	rel, _ := sites[0].Release([]uint64{1}, 1, 0)
	sites[1].Grant([]uint64{1}, rel, 0, 0)
	sel.RegisterPartition(1, 1)

	ws := []storage.RowRef{ref(1), ref(101)}
	route, cached := routeLikeSession(t, front, 1, ws)
	if cached || !route.Remastered {
		t.Fatalf("split write set: route = %+v cached=%v, want a remaster by the selector", route, cached)
	}
	// The remaster's delta reached the cache: the same write set now takes
	// the fast path.
	before := g.Metrics().RemasterTxns
	route2, cached := routeLikeSession(t, front, 1, ws)
	if !cached || route2.Site != route.Site || g.Metrics().RemasterTxns != before {
		t.Fatalf("second route = %+v cached=%v, want a cached route to site %d", route2, cached, route.Site)
	}
}

func TestReplicaStaleCacheFallback(t *testing.T) {
	g, sites := newShardedGroup(t, 2, 1, 1, StatsConfig{HistorySize: 128})
	front, sel, c := g.RouterFor(1), g.Shard(0), g.Cache()
	ws := []storage.RowRef{ref(1)}
	if _, err := front.RouteWrite(1, ws, nil); err != nil {
		t.Fatal(err)
	}

	// Move partition 0 to site 1 under an allocated epoch: the feed caches
	// the move at that epoch.
	epoch, err := sel.AllocEpoch()
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := sites[0].Release([]uint64{0}, 1, epoch)
	sites[1].Grant([]uint64{0}, rel, 0, epoch)
	sel.RegisterPartitionEpoch(0, 1, epoch)
	// Move it back behind the cache's back: an epoch-0 seed, which the
	// monotonic cache refuses to install over the higher epoch.
	rel, _ = sites[1].Release([]uint64{0}, 0, 0)
	sites[0].Grant([]uint64{0}, rel, 1, 0)
	sel.RegisterPartitionEpoch(0, 0, 0)

	if route, ok := front.CachedWrite(1, ws); !ok || route.Site != 1 {
		t.Fatalf("expected a stale cached route to site 1, got %+v/%v", route, ok)
	}
	// The data site would reject; the client resubmits through the front.
	route, err := front.Resubmit(1, ws, nil, obs.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	if route.Site != 0 {
		t.Fatalf("resubmit routed to %d, want 0", route.Site)
	}
	if c.StaleWrites() != 1 {
		t.Fatalf("stale writes = %d, want 1", c.StaleWrites())
	}
	// And the cache learned the answer.
	if route, ok := front.CachedWrite(1, ws); !ok || route.Site != 0 {
		t.Fatalf("cache not refreshed by the resubmit: %+v/%v", route, ok)
	}
}

func TestReplicaRouteRead(t *testing.T) {
	g, _ := newShardedGroup(t, 3, 1, 1, StatsConfig{HistorySize: 128})
	front := g.RouterFor(1)
	seen := map[int]bool{}
	for i := 0; i < 60; i++ {
		route, ok := front.CachedRead(1, nil, nil)
		if !ok {
			t.Fatal("unhinted read missed the cache")
		}
		seen[route.Site] = true
	}
	if len(seen) < 2 {
		t.Fatal("cached read routing not spreading load")
	}
	if g.Cache().ReadRoutes() != 60 {
		t.Fatalf("cache read routes = %d, want 60", g.Cache().ReadRoutes())
	}
}

// TestFrontRouteAllocs pins the warm front's cost for every control-plane
// size: a write of up to eight partitions allocates only its partition list,
// whether its partitions sit on one shard or several, and a read allocates
// only the version vectors its two sites hand out.
func TestFrontRouteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	measure := func(front *Front, ws []storage.RowRef) float64 {
		for i := 0; i < 500; i++ { // past first-sight creation and any remaster
			if _, err := front.RouteWrite(1, ws, nil); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(500, func() { _, _ = front.RouteWrite(1, ws, nil) })
	}
	for _, shards := range []int{1, 2, 4} {
		g, _ := newShardedGroup(t, 2, shards, 0, StatsConfig{HistorySize: 128})
		front := g.RouterFor(1)
		buckets := shardBuckets(50, shards)
		// A single-shard write set, then (with several shards) one spanning
		// two shards.
		home := buckets[0]
		single := []storage.RowRef{ref(home[0] * 100), ref(home[0]*100 + 50), ref(home[1] * 100)}
		got := measure(front, single)
		t.Logf("shards=%d: single-shard RouteWrite %.2f allocs", shards, got)
		if got > 1 {
			t.Fatalf("shards=%d: single-shard RouteWrite allocates %.2f per call, want <= 1", shards, got)
		}
		if shards > 1 {
			cross := []storage.RowRef{ref(buckets[0][0] * 100), ref(buckets[1][0] * 100)}
			got := measure(front, cross)
			t.Logf("shards=%d: cross-shard RouteWrite %.2f allocs", shards, got)
			if got > 1 {
				t.Fatalf("shards=%d: cross-shard RouteWrite allocates %.2f per call, want <= 1", shards, got)
			}
		}
		got = testing.AllocsPerRun(500, func() { front.RouteRead(1, nil) })
		t.Logf("shards=%d: RouteRead %.2f allocs", shards, got)
		if got > 2 {
			t.Fatalf("shards=%d: RouteRead allocates %.2f per call, want <= 2", shards, got)
		}
	}
}
