package selector

import (
	"errors"
	"runtime"
	"testing"

	"dynamast/internal/obs"
	"dynamast/internal/sitemgr"
	"dynamast/internal/storage"
)

// routeLikeSession routes a write the way core.Session does on a first
// attempt: locally when it can, else through the routers.
func routeLikeSession(t *testing.T, front *Front, client int, ws []storage.RowRef) (Route, bool) {
	t.Helper()
	if r, ok := front.LocalWrite(client, ws); ok {
		return r, true
	}
	r, err := front.Write(client, ws, nil, obs.SpanContext{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r, false
}

func TestReplicatedRouterAssignment(t *testing.T) {
	stats := StatsConfig{HistorySize: 128}
	// One shard, no standbys: a one-node control plane, no local routing.
	g0, _ := newShardedGroup(t, 2, 1, 0, stats)
	if g0.RouterFor(0).Local() {
		t.Fatal("one-node control plane routes locally")
	}
	if g0.RouterFor(0) != g0.RouterFor(1) {
		t.Fatal("clients were handed different fronts")
	}
	// A standby tier makes the control plane multi-node: the front is local.
	g1, _ := newShardedGroup(t, 2, 1, 2, stats)
	if g1.repls[0].Standbys() != 2 {
		t.Fatal("standby count")
	}
	if !g1.RouterFor(3).Local() {
		t.Fatal("standby tier did not make the front local")
	}
}

func TestReplicaFastPathAvoidsMaster(t *testing.T) {
	g, _ := newShardedGroup(t, 2, 1, 1, StatsConfig{HistorySize: 128})
	front := g.RouterFor(1)

	// The first write materializes partition 0 through the selector; the
	// second is routed locally from its hint.
	ws := []storage.RowRef{ref(1), ref(50)}
	if _, local := routeLikeSession(t, front, 1, ws); local {
		t.Fatal("local route served a partition no router had seen")
	}
	writes := g.Metrics().WriteTxns
	route, local := routeLikeSession(t, front, 1, ws)
	if !local || route.Site != 0 || route.Remastered {
		t.Fatalf("route = %+v local=%v, want a local route to site 0", route, local)
	}
	if g.Metrics().RemasterTxns != 0 {
		t.Fatal("fast path reached the selector's remastering")
	}
	// The local route is still counted.
	if g.Metrics().WriteTxns != writes+1 {
		t.Fatal("locally routed write not counted")
	}
}

func TestReplicaForwardsSplitWriteSets(t *testing.T) {
	g, sites := newShardedGroup(t, 2, 1, 1, StatsConfig{HistorySize: 128})
	front, sel := g.RouterFor(1), g.Shard(0)
	rel, _ := sites[0].Release([]uint64{1}, 1, 0)
	sites[1].Grant([]uint64{1}, rel, 0, 0)
	sel.RegisterPartitionEpoch(1, 1, 0)

	ws := []storage.RowRef{ref(1), ref(101)}
	route, local := routeLikeSession(t, front, 1, ws)
	if local || !route.Remastered {
		t.Fatalf("split write set: route = %+v local=%v, want a remaster by the selector", route, local)
	}
	// The remaster's flip moved the hints: the same write set now takes the
	// fast path.
	before := g.Metrics().RemasterTxns
	route2, local := routeLikeSession(t, front, 1, ws)
	if !local || route2.Site != route.Site || g.Metrics().RemasterTxns != before {
		t.Fatalf("second route = %+v local=%v, want a local route to site %d", route2, local, route.Site)
	}
}

// TestReplicaStaleCacheFallback walks the one window in which a local write
// route is stale: a remaster chain holds the partition's exclusive lock and
// has moved it at the sites, but has not flipped its metadata yet. The local
// route names the old master, which rejects the transaction; the retry
// through Write waits for the flip and answers the new master.
func TestReplicaStaleCacheFallback(t *testing.T) {
	g, sites := newShardedGroup(t, 2, 1, 1, StatsConfig{HistorySize: 128})
	front, sel := g.RouterFor(1), g.Shard(0)
	ws := []storage.RowRef{ref(1)}
	if _, err := front.RouteWrite(1, ws, nil); err != nil {
		t.Fatal(err)
	}

	// Run a chain's steps by hand: lock, release and grant at the sites.
	in := sel.parts.Get(0)
	in.mu.Lock()
	epoch, err := sel.AllocEpoch()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := sites[0].Release([]uint64{0}, 1, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sites[1].Grant([]uint64{0}, rel, 0, epoch); err != nil {
		t.Fatal(err)
	}

	// The local route names the old master, which rejects the transaction.
	if route, ok := front.LocalWrite(1, ws); !ok || route.Site != 0 {
		t.Fatalf("local route = %+v/%v, want the old master 0", route, ok)
	}
	if tx, err := sites[0].Begin(nil, ws); !errors.Is(err, sitemgr.ErrNotMaster) {
		if tx != nil {
			tx.Abort()
		}
		t.Fatalf("Begin at the old master: %v, want ErrNotMaster", err)
	}

	// The retry blocks on the partition's lock until the chain flips.
	done := make(chan Route, 1)
	go func() {
		route, err := front.Write(1, ws, nil, obs.SpanContext{}, 1)
		if err != nil {
			t.Error(err)
		}
		done <- route
	}()
	for front.staleWrites.Load() == 0 {
		runtime.Gosched()
	}
	select {
	case route := <-done:
		t.Fatalf("Write returned %+v while the chain held the partition lock", route)
	default:
	}
	in.setMaster(1, epoch)
	sel.noteMaster([]uint64{0}, 1)
	in.mu.Unlock()
	if route := <-done; route.Site != 1 || route.Remastered {
		t.Fatalf("retry routed to %+v, want the new master 1 without a remaster", route)
	}
	if route, ok := front.LocalWrite(1, ws); !ok || route.Site != 1 {
		t.Fatalf("local route after the flip = %+v/%v, want 1", route, ok)
	}
}

func TestReplicaRouteRead(t *testing.T) {
	g, _ := newShardedGroup(t, 3, 1, 1, StatsConfig{HistorySize: 128})
	front := g.RouterFor(1)
	seen := map[int]bool{}
	for i := 0; i < 60; i++ {
		seen[front.Read(1, nil, nil, 0).Site] = true
	}
	if len(seen) < 2 {
		t.Fatal("local read routing not spreading load")
	}
	if front.readRoutes.Load() != 60 {
		t.Fatalf("local read routes = %d, want 60", front.readRoutes.Load())
	}
}

// TestFrontRouteAllocs pins the warm front's cost for every control-plane
// size: a write of up to eight partitions allocates only its partition list,
// whether its partitions sit on one shard or several and whether a router or
// the session's local route decides it, and a read allocates only the
// version vectors its two sites hand out.
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

	// The local path, on one shard with a standby and on four shards.
	for _, tc := range []struct {
		name             string
		shards, standbys int
	}{{"1shard+1standby", 1, 1}, {"4shards", 4, 0}} {
		g, _ := newShardedGroup(t, 2, tc.shards, tc.standbys, StatsConfig{HistorySize: 128})
		front := g.RouterFor(1)
		buckets := shardBuckets(50, tc.shards)
		ws := []storage.RowRef{ref(buckets[0][0] * 100), ref(buckets[0][0]*100 + 50)}
		if tc.shards > 1 {
			ws = append(ws, ref(buckets[1][0]*100))
		}
		measure(front, ws) // the routers see, and co-locate, every partition
		if _, ok := front.LocalWrite(1, ws); !ok {
			t.Fatalf("%s: warm write set missed the local route", tc.name)
		}
		got := testing.AllocsPerRun(500, func() { _, _ = front.LocalWrite(1, ws) })
		t.Logf("%s: LocalWrite %.2f allocs", tc.name, got)
		if got > 1 {
			t.Fatalf("%s: LocalWrite allocates %.2f per call, want <= 1", tc.name, got)
		}
		got = testing.AllocsPerRun(500, func() { front.Read(1, nil, nil, 0) })
		t.Logf("%s: local Read %.2f allocs", tc.name, got)
		if got > 2 {
			t.Fatalf("%s: local Read allocates %.2f per call, want <= 2", tc.name, got)
		}
	}
}
