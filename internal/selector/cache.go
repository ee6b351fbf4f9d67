package selector

import (
	"sync"
	"sync/atomic"
	"time"

	"dynamast/internal/obs"
	"dynamast/internal/storage"
	"dynamast/internal/vclock"
)

// DefaultGossipInterval is the placement cache's anti-entropy pull period:
// the upper bound on how stale a cache entry the delta feed missed can stay.
const DefaultGossipInterval = 20 * time.Millisecond

// PlacementCache is the front's gossiped read-only placement view:
// mastership (and, under partial replication, replica-set) snapshots
// versioned by install epoch. Installs are epoch-monotonic per partition
// (install), so feed deliveries and gossip pulls commute, and a straggler
// below the installed epoch never rolls an entry back. Three sources keep
// it fresh:
//
//   - every shard leader's mastership delta feed reaches ingest
//     synchronously;
//   - a periodic anti-entropy pull copies each shard leader's placement
//     snapshot, catching what the feed cannot carry (replica-set changes,
//     promotions' rebuilt maps). GossipInterval bounds that window;
//   - an authoritative resubmit learns its answer (see Front.Resubmit).
//
// Staleness is safe by construction: a read routed to a site that no longer
// hosts the partition bounces with ErrNotHosted, and a write routed to a
// former master bounces with ErrNotMaster or loses its fence race with
// ErrStaleEpoch; the session then resubmits through the front.
type PlacementCache struct {
	mu    sync.RWMutex
	owner map[uint64]int
	epoch map[uint64]uint64
	sets  map[uint64][]int // replica sets; nil under full replication

	g        *Group
	interval time.Duration

	readRoutes  atomic.Uint64 // reads served with zero router RPCs
	writeRoutes atomic.Uint64 // writes served with zero router RPCs
	staleWrites atomic.Uint64 // writes resubmitted after a failed attempt
	misses      atomic.Uint64 // routes that fell back to a router
	gossipTicks atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newPlacementCache(g *Group, interval time.Duration, reg *obs.Registry) *PlacementCache {
	if interval <= 0 {
		interval = DefaultGossipInterval
	}
	c := &PlacementCache{g: g, interval: interval, stop: make(chan struct{})}
	c.instrument(reg)
	return c
}

func (c *PlacementCache) start() {
	c.gossip() // seed synchronously so early sessions see initial placement
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.interval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.gossip()
			}
		}
	}()
}

func (c *PlacementCache) stopLoop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// gossip pulls every shard leader's placement snapshot — the anti-entropy
// pass bounding staleness for entries no delta carries. Each shard
// contributes only its own range: another shard's epochs come from a
// different allocator and must never out-arbitrate the owner's.
func (c *PlacementCache) gossip() {
	c.gossipTicks.Add(1)
	for i := 0; i < c.g.n; i++ {
		sel := c.g.Shard(i)
		placement, epochs := sel.PlacementSnapshot()
		c.seed(placement, epochs, func(p uint64) bool { return c.g.ShardOf(p) == i })
		table := sel.PlacementTable()
		if table == nil {
			continue
		}
		c.mu.Lock()
		if c.sets == nil {
			c.sets = make(map[uint64][]int, len(table))
		}
		for p, set := range table {
			if c.g.ShardOf(p) == i {
				c.sets[p] = set
			}
		}
		c.mu.Unlock()
	}
}

// hosts intersects the cached replica sets of parts; ok is false when a
// partition's set is not cached.
func (c *PlacementCache) hosts(parts []uint64) ([]int, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var hosts []int
	for i, p := range parts {
		set, ok := c.sets[p]
		switch {
		case !ok:
			return nil, false
		case i == 0:
			hosts = append(hosts, set...)
		default:
			hosts = intersectSites(hosts, set)
		}
	}
	return hosts, true
}

// install applies the epoch-monotonic rule to one partition. Caller holds
// c.mu exclusively.
func (c *PlacementCache) install(p uint64, site int, epoch uint64) {
	if c.owner == nil {
		c.owner = make(map[uint64]int)
		c.epoch = make(map[uint64]uint64)
	}
	if epoch >= c.epoch[p] {
		c.owner[p] = site
		c.epoch[p] = epoch
	}
}

// ingest applies one mastership delta from a shard leader's feed.
func (c *PlacementCache) ingest(parts []uint64, site int, epoch uint64) {
	c.mu.Lock()
	for _, p := range parts {
		c.install(p, site, epoch)
	}
	c.mu.Unlock()
}

// seed merges a full placement snapshot (owner and install epoch per
// partition), keeping only the partitions keep accepts.
func (c *PlacementCache) seed(owner map[uint64]int, epochs map[uint64]uint64, keep func(uint64) bool) {
	c.mu.Lock()
	for p, site := range owner {
		if keep(p) {
			c.install(p, site, epochs[p])
		}
	}
	c.mu.Unlock()
}

// learn installs an authoritative routing answer regardless of epoch: the
// router just decided parts are mastered at site, so an entry whose cached
// epoch is higher than the truth's (a move the feed never reported) stops
// bouncing writes. The install epochs are untouched; the next delta or
// gossip pull at that epoch or above overrides the answer as usual.
func (c *PlacementCache) learn(parts []uint64, site int) {
	c.mu.Lock()
	for _, p := range parts {
		c.install(p, site, c.epoch[p])
	}
	c.mu.Unlock()
}

// single returns the master of every partition if all are mapped to the
// same site.
func (c *PlacementCache) single(parts []uint64) (int, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	site, ok := c.owner[parts[0]]
	if !ok {
		return 0, false
	}
	for _, p := range parts[1:] {
		if s, ok := c.owner[p]; !ok || s != site {
			return 0, false
		}
	}
	return site, true
}

// Mirror copies the cached mastership: owner and install epoch per
// partition.
func (c *PlacementCache) Mirror() (map[uint64]int, map[uint64]uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	owner := make(map[uint64]int, len(c.owner))
	epochs := make(map[uint64]uint64, len(c.owner))
	for p, site := range c.owner {
		owner[p] = site
		epochs[p] = c.epoch[p]
	}
	return owner, epochs
}

// Size returns the number of cached mastership entries.
func (c *PlacementCache) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.owner)
}

// ReadRoutes returns how many reads the cache served without a router RPC.
func (c *PlacementCache) ReadRoutes() uint64 { return c.readRoutes.Load() }

// WriteRoutes returns how many writes the cache served without a router RPC.
func (c *PlacementCache) WriteRoutes() uint64 { return c.writeRoutes.Load() }

// StaleWrites returns how many writes were resubmitted through the routers
// after a failed attempt (a cached route bounced by a data site, or a
// transient routing fault).
func (c *PlacementCache) StaleWrites() uint64 { return c.staleWrites.Load() }

// Misses returns how many route attempts fell back to the routers.
func (c *PlacementCache) Misses() uint64 { return c.misses.Load() }

func (c *PlacementCache) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Help("dynamast_selector_cache_routes_total", "Session routes served purely from the gossiped placement cache.")
	reg.Help("dynamast_selector_cache_misses_total", "Session routes that fell back to a router shard on a cache miss.")
	reg.Help("dynamast_selector_cache_stale_writes_total", "Writes resubmitted authoritatively after a failed attempt (stale cache bounce or transient fault).")
	reg.Help("dynamast_selector_cache_entries", "Mastership entries in the gossiped placement cache.")
	reg.Help("dynamast_selector_cache_gossip_total", "Anti-entropy gossip pulls refreshing the placement cache.")
	reg.Func("dynamast_selector_cache_routes_total", obs.KindCounter, func() float64 {
		return float64(c.readRoutes.Load() + c.writeRoutes.Load())
	}, obs.L("type", "all"))
	reg.Func("dynamast_selector_cache_routes_total", obs.KindCounter, func() float64 {
		return float64(c.readRoutes.Load())
	}, obs.L("type", "read"))
	reg.Func("dynamast_selector_cache_routes_total", obs.KindCounter, func() float64 {
		return float64(c.writeRoutes.Load())
	}, obs.L("type", "write"))
	reg.Func("dynamast_selector_cache_misses_total", obs.KindCounter, func() float64 {
		return float64(c.misses.Load())
	})
	reg.Func("dynamast_selector_cache_stale_writes_total", obs.KindCounter, func() float64 {
		return float64(c.staleWrites.Load())
	})
	reg.Func("dynamast_selector_cache_entries", obs.KindGauge, func() float64 {
		return float64(c.Size())
	})
	reg.Func("dynamast_selector_cache_gossip_total", obs.KindCounter, func() float64 {
		return float64(c.gossipTicks.Load())
	})
}

// Router is the routing interface the harness pins; *Front implements it.
type Router interface {
	RouteWrite(client int, writeSet []storage.RowRef, cvv vclock.Vector) (Route, error)
	RouteRead(client int, cvv vclock.Vector) Route
}

// Front is the one session-facing router (the distributed site selector of
// Appendix I), the same for every control-plane topology. With a placement
// cache it routes reads and single-sited writes from the cache with zero
// router RPCs and sends everything else to the group's routing; a write the
// cache routed to a stale master bounces at the data site, and the session
// resubmits through Resubmit, which learns the authoritative answer. The
// cache exists whenever the control plane has more than one node (standbys,
// or several shards); on a one-node control plane c is nil and every call
// routes through the group.
type Front struct {
	g *Group
	c *PlacementCache
}

// CachedWrite serves a write purely from the cache when every partition of
// its write set is cached as mastered at one live site; the decision is
// recorded like any routed write. ok=false (a miss, or no cache) means the
// caller must route through Write.
func (f *Front) CachedWrite(client int, writeSet []storage.RowRef) (Route, bool) {
	c := f.c
	if c == nil {
		return Route{}, false
	}
	start := time.Now()
	parts := writeParts(f.g.partitioner, writeSet)
	if len(parts) == 0 {
		return Route{Site: 0}, true
	}
	site, ok := c.single(parts)
	if !ok || f.g.SiteDown(site) {
		c.misses.Add(1)
		return Route{}, false
	}
	c.writeRoutes.Add(1)
	f.g.finishWrite(client, parts, site, start)
	return Route{Site: site}, true
}

// Write routes a write authoritatively through the group, remastering if
// its partitions are mastered at different sites. A sampled sc makes every
// remaster chain record its release and grant spans as children of sc.Span.
func (f *Front) Write(client int, writeSet []storage.RowRef, cvv vclock.Vector, sc obs.SpanContext) (Route, error) {
	return f.g.routeWrite(client, writeSet, cvv, sc)
}

// Resubmit is Write for an attempt after a failed one — typically a data
// site bounced a stale cached route with ErrNotMaster or ErrStaleEpoch. With
// a cache the resubmit is counted and its answer learned, so a cached entry
// the feed cannot correct stops bouncing later writes.
func (f *Front) Resubmit(client int, writeSet []storage.RowRef, cvv vclock.Vector, sc obs.SpanContext) (Route, error) {
	if f.c == nil {
		return f.g.routeWrite(client, writeSet, cvv, sc)
	}
	f.c.staleWrites.Add(1)
	route, err := f.g.routeWrite(client, writeSet, cvv, sc)
	if err == nil {
		f.c.learn(writeParts(f.g.partitioner, writeSet), route.Site)
	}
	return route, err
}

// RouteWrite implements Router: Write without a trace.
func (f *Front) RouteWrite(client int, writeSet []storage.RowRef, cvv vclock.Vector) (Route, error) {
	return f.g.routeWrite(client, writeSet, cvv, obs.SpanContext{})
}

// CachedRead serves a read from the cache: without a partition hint (or
// under full replication) any fresh-enough site will do, and with one the
// pick is among the cached replica sets' common hosts. ok=false (no cache,
// or a hinted partition whose replica set is not cached) means the caller
// must route through Read.
func (f *Front) CachedRead(client int, cvv vclock.Vector, parts []uint64) (Route, bool) {
	c := f.c
	if c == nil {
		return Route{}, false
	}
	hosts := f.g.allSites
	if len(parts) > 0 && f.g.PartialPlacement() {
		h, ok := c.hosts(parts)
		if !ok || len(h) == 0 {
			c.misses.Add(1)
			return Route{}, false
		}
		// Feed read statistics to the owning shards (the paper's replicas
		// report samples back asynchronously; the cache does the same).
		f.g.shardRuns(parts, func(si int, run []uint64) { f.g.Shard(si).stats.RecordRead(client, run) })
		hosts = h
	}
	c.readRoutes.Add(1)
	return f.g.pickRead(hosts, cvv, parts), true
}

// Read routes a read authoritatively: to a fresh site hosting every hinted
// partition (partial replication), or to any fresh site.
func (f *Front) Read(client int, cvv vclock.Vector, parts []uint64) Route {
	return f.g.routeRead(client, cvv, parts)
}

// RouteRead implements Router: Read without partition hints.
func (f *Front) RouteRead(client int, cvv vclock.Vector) Route {
	return f.g.routeRead(client, cvv, nil)
}
