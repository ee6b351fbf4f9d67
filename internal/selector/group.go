package selector

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dynamast/internal/obs"
	"dynamast/internal/sitemgr"
	"dynamast/internal/storage"
	"dynamast/internal/vclock"
)

// Sharded selector routers. The single selector leader is DynaMast's last
// serialization point: every update route, remaster chain, and placement
// decision flows through one process. A Group splits that control plane into
// N independent router shards, each owning a contiguous range of the
// partition-id hash space (RouterShardOf — the same Fibonacci multiply-shift
// the selector's own lock striping uses, so shard assignment is a pure
// function of the partition id). Each shard is a full Replicated tier: its
// own Selector (routing loop + stats stripes + placement state), its own
// standbys, and — under HA — its own lease, which doubles as that
// shard's remaster-epoch allocator (one key of a KeyedLeaseStore).
//
// Cross-shard concerns are handled at the edges:
//
//   - Remaster chains stay single-shard by construction: a write set
//     spanning shards is decomposed into per-shard chains, each stamped
//     from its own shard's epoch allocator, so no epoch ever needs to be
//     compared across shards.
//   - Co-access statistics crossing a shard boundary travel over a small
//     inter-shard channel (dispatchRecord): each decided write's full
//     partition set is delivered to every shard owning a partition of the
//     write OR of the client's previous write, so both sides of every
//     cross-shard pair record it and neither placement controller sees a
//     one-sided affinity signal.
//   - Sessions route through the Front (cache.go), which serves reads and
//     single-sited writes off a gossiped read-only placement cache without
//     touching any router.
//
// With one shard no hooks are installed and routing goes straight to the
// shard's selector; with one shard and no standbys there is no cache
// either, and the wire behavior is byte-for-byte the single-leader selector.

// MaxRouterShards bounds the shard count (recent-owner sets are uint64
// bitmasks).
const MaxRouterShards = 64

// RouterShardOf maps a partition id to its router shard in [0, n): a pure
// function (Fibonacci multiply-shift onto n contiguous hash ranges) shared
// with the sites' range-scoped fences and the dynactl tooling.
func RouterShardOf(part uint64, n int) int { return sitemgr.RouterShard(part, n) }

// recentStripes stripes the Group's per-client recent-owner map (the
// inter-shard co-access hint channel).
const recentStripes = 16

// recentOwners remembers which shards own partitions of a client's last
// write set, and when it was routed.
type recentOwners struct {
	at   time.Time
	mask uint64 // bit i = shard i owned a partition of the write set
}

type recentStripe struct {
	mu sync.Mutex
	m  map[int]recentOwners
	_  [24]byte // pad stripes apart
}

// GroupConfig configures a sharded router group.
type GroupConfig struct {
	// Shards are the per-shard Replicated tiers, indexed by shard.
	Shards []*Replicated
	// GossipInterval is the placement cache's anti-entropy pull period
	// (bounds cache staleness; 0 = DefaultGossipInterval).
	GossipInterval time.Duration
	// Obs receives the dynamast_selector_shard_* and cache metrics.
	Obs *obs.Registry
}

// Group is the sharded selector control plane. All control-plane entry
// points dispatch by RouterShardOf; routing entry points additionally
// decompose cross-shard write sets at partition granularity.
type Group struct {
	repls []*Replicated
	n     int
	cache *PlacementCache
	front *Front

	// recent is the inter-shard co-access hint channel: per client, the
	// owner-shard set of the last routed write.
	recent [recentStripes]recentStripe

	crossWrites atomic.Uint64 // write routes spanning >1 shard
	crossHints  atomic.Uint64 // stat samples delivered beyond their own shards
}

// NewGroup builds the sharded control plane over per-shard Replicated
// tiers. The shard selectors must have been built with GroupHooks(i, n,
// get) so their scoring and stats flow through the group; get's late-bound
// reference must resolve to the returned group before any traffic routes.
// The front gets a placement cache whenever the control plane has more than
// one node: several shards, or standbys behind each leader.
func NewGroup(cfg GroupConfig) (*Group, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("selector: group requires at least one shard")
	}
	if len(cfg.Shards) > MaxRouterShards {
		return nil, fmt.Errorf("selector: %d shards exceeds the maximum %d", len(cfg.Shards), MaxRouterShards)
	}
	g := &Group{repls: cfg.Shards, n: len(cfg.Shards)}
	for i := range g.recent {
		g.recent[i].m = make(map[int]recentOwners)
	}
	if g.n > 1 || cfg.Shards[0].standbys > 0 {
		g.cache = newPlacementCache(g, cfg.GossipInterval, cfg.Obs)
		for _, repl := range g.repls {
			repl.setFeedSink(g.cache.ingest)
		}
		g.cache.start()
	}
	g.front = &Front{g: g, c: g.cache}
	g.instrument(cfg.Obs)
	return g, nil
}

// GroupHooks builds the ShardHooks wiring shard i of an n-shard group. The
// group usually does not exist yet when the shard's Config is built, so the
// group reference is late-bound through get (which must be non-nil by the
// time the shard routes traffic). n <= 1 returns zero hooks: the
// single-shard deployment keeps the stand-alone selector paths.
func GroupHooks(i, n int, get func() *Group) ShardHooks {
	if n <= 1 {
		return ShardHooks{}
	}
	return ShardHooks{
		Owns:          func(p uint64) bool { return RouterShardOf(p, n) == i },
		ForeignMaster: func(p uint64) int { return get().hintOf(p) },
		Record: func(client int, parts []uint64, now time.Time) {
			get().dispatchRecord(client, parts, now)
		},
		AccessWeight: func(p uint64) float64 { return get().ShardFor(p).stats.AccessWeight(p) },
		CoAccess: func(d1 uint64, intra bool, buf []CoPair) ([]CoPair, float64) {
			return get().ShardFor(d1).stats.CoAccess(d1, intra, buf)
		},
		SiteLoads: func() []float64 { return get().siteLoads() },
	}
}

// Shards returns the shard count.
func (g *Group) Shards() int { return g.n }

// Shard returns shard i's current leader selector.
func (g *Group) Shard(i int) *Selector { return g.repls[i].Leader() }

// Repl returns shard i's Replicated tier.
func (g *Group) Repl(i int) *Replicated { return g.repls[i] }

// ShardOf returns the shard owning a partition.
func (g *Group) ShardOf(part uint64) int { return RouterShardOf(part, g.n) }

// ShardFor returns the leader selector of the shard owning a partition.
func (g *Group) ShardFor(part uint64) *Selector { return g.repls[g.ShardOf(part)].Leader() }

// Cache returns the front's gossiped placement cache (nil on a one-node
// control plane).
func (g *Group) Cache() *PlacementCache { return g.cache }

// CrossShardWrites returns how many write routes spanned multiple shards.
func (g *Group) CrossShardWrites() uint64 { return g.crossWrites.Load() }

// CrossShardHints returns how many stat samples were delivered to shards
// beyond the write set's own owners (the inter-shard co-access channel).
func (g *Group) CrossShardHints() uint64 { return g.crossHints.Load() }

// Stop terminates the group's background work (the cache gossip loop).
func (g *Group) Stop() {
	if g.cache != nil {
		g.cache.stopLoop()
	}
}

// RouterFor returns a client's router: the group's one Front, shared by
// every client (each call carries its client id).
func (g *Group) RouterFor(client int) *Front { return g.front }

// hintOf resolves a partition's master hint read-only across the group:
// the owning shard's lock-free hint if the partition exists, its initial
// placement otherwise. Never creates partition state (a foreign part()
// would grant first-sight ownership from the wrong shard).
func (g *Group) hintOf(p uint64) int {
	sel := g.ShardFor(p)
	if m, ok := sel.peekMaster(p); ok {
		return m
	}
	return sel.initial(p)
}

// siteLoads sums materialized per-site load across all shards (the balance
// feature scores global load).
func (g *Group) siteLoads() []float64 {
	out := g.Shard(0).siteLoadSnapshot(nil)
	for i := 1; i < g.n; i++ {
		sel := g.Shard(i)
		for s := range out {
			out[s] += loadFloat(&sel.siteLoad[s])
		}
	}
	return out
}

// ownerMask returns the set of shards owning partitions of parts as a
// bitmask.
func (g *Group) ownerMask(parts []uint64) uint64 {
	var mask uint64
	for _, p := range parts {
		mask |= 1 << uint(g.ShardOf(p))
	}
	return mask
}

// dispatchRecord is the inter-shard co-access channel: one decided write's
// full partition set, delivered to every shard owning a partition of this
// write or of the client's previous write. Both endpoints of every
// cross-shard co-access pair (intra-transaction: two partitions of this
// set; inter-transaction: one of the previous set, one of this) therefore
// record the pair on their own stripes — neither side's placement
// controller sees a one-sided affinity signal. Delivery of the previous
// owners is unconditional (not windowed): even when the pair window has
// lapsed, it keeps those shards' per-client recency fresh, so their next
// in-window pair matches the unsharded tracker's.
func (g *Group) dispatchRecord(client int, parts []uint64, now time.Time) {
	cur := g.ownerMask(parts)
	st := &g.recent[uint64(uint(client))*0x9E3779B97F4A7C15>>32&(recentStripes-1)]
	st.mu.Lock()
	mask := cur | st.m[client].mask
	st.m[client] = recentOwners{at: now, mask: cur}
	st.mu.Unlock()
	if mask != cur {
		g.crossHints.Add(1)
	}
	for si := 0; si < g.n; si++ {
		if mask&(1<<uint(si)) != 0 {
			g.Shard(si).stats.RecordWrite(client, parts, now)
		}
	}
}

// --- Routing ---

// routeWrite routes a write authoritatively: a one-shard group hands it
// straight to the shard's selector, single-shard write sets delegate
// wholesale to the owning shard's routing loop, and cross-shard sets run the
// group decision (global lock order, one destination, per-shard remaster
// chains).
func (g *Group) routeWrite(client int, writeSet []storage.RowRef, cvv vclock.Vector, sc obs.SpanContext) (Route, error) {
	s0 := g.Shard(0)
	if g.n == 1 {
		return s0.routeWrite(client, writeSet, cvv, sc)
	}
	parts := s0.writeParts(writeSet)
	if len(parts) == 0 {
		return s0.routeWrite(client, writeSet, cvv, sc)
	}
	first := g.ShardOf(parts[0])
	single := true
	for _, p := range parts[1:] {
		if g.ShardOf(p) != first {
			single = false
			break
		}
	}
	if single {
		// The common case: remaster chains stay single-shard by
		// construction, and the shard's own loop handles everything.
		return g.Shard(first).routeWrite(client, writeSet, cvv, sc)
	}
	return g.routeWriteCross(client, parts, cvv, sc)
}

// routeWriteCross routes a write set spanning shards: partition locks are
// taken in global sorted-id order (consistent with every shard's internal
// order, so no lock cycles), the destination is chosen once over the full
// set, and each involved shard remasters its own partitions under its own
// epoch allocator.
func (g *Group) routeWriteCross(client int, parts []uint64, cvv vclock.Vector, sc obs.SpanContext) (Route, error) {
	g.crossWrites.Add(1)
	start := time.Now()
	sels := make([]*Selector, len(parts))
	infos := make([]*partInfo, len(parts))
	for i, p := range parts {
		sel := g.ShardFor(p)
		if sel.deposed.Load() {
			return Route{}, ErrNoLeader
		}
		sels[i] = sel
		infos[i] = sel.part(p)
	}

	// Fast path: shared-lock all partitions (global sorted id order) and
	// check for a single master.
	for _, in := range infos {
		in.mu.RLock()
	}
	master := infos[0].master
	single := true
	for _, in := range infos[1:] {
		if in.master != master {
			single = false
			break
		}
	}
	if single {
		for _, in := range infos {
			in.mu.RUnlock()
		}
		if err := g.ensureHostedCross(parts, sels, master); err != nil {
			return Route{}, err
		}
		g.finishCross(client, parts, sels, master, start)
		return Route{Site: master}, nil
	}

	// Slow path: upgrade to exclusive locks (drop shared, reacquire in
	// order — the recheck below covers intervening changes).
	for _, in := range infos {
		in.mu.RUnlock()
	}
	for _, in := range infos {
		in.mu.Lock()
	}
	defer func() {
		for _, in := range infos {
			in.mu.Unlock()
		}
	}()
	master = infos[0].master
	single = true
	for _, in := range infos[1:] {
		if in.master != master {
			single = false
			break
		}
	}
	if single {
		if err := g.ensureHostedCross(parts, sels, master); err != nil {
			return Route{}, err
		}
		g.finishCross(client, parts, sels, master, start)
		return Route{Site: master}, nil
	}

	// One destination for the whole set, scored by the home shard (lowest
	// partition id — deterministic) over group-wide stats and load via the
	// shard hooks.
	home := sels[0]
	dest, err := home.chooseDestination(parts, infos, cvv)
	if err != nil {
		return Route{}, err
	}

	// Per-shard remaster chains: each shard moves its own partitions under
	// epochs from its own allocator, so chains never compare epochs across
	// shards and a single shard's ErrNoLeader (mid-promotion) fails only
	// its slice — the session retry re-routes the whole set.
	type sub struct {
		sel   *Selector
		parts []uint64
		infos []*partInfo
	}
	subs := make(map[int]*sub, 2)
	var order []int
	for i, p := range parts {
		si := g.ShardOf(p)
		sb := subs[si]
		if sb == nil {
			sb = &sub{sel: sels[i]}
			subs[si] = sb
			order = append(order, si)
		}
		sb.parts = append(sb.parts, p)
		sb.infos = append(sb.infos, infos[i])
	}
	remStart := time.Now()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		minVV    vclock.Vector
		moved    int
		firstErr error
	)
	for _, si := range order {
		sb := subs[si]
		wg.Add(1)
		go func(sb *sub) {
			defer wg.Done()
			vv, mvd, err := sb.sel.remaster(sb.parts, sb.infos, dest, sc)
			mu.Lock()
			defer mu.Unlock()
			moved += mvd
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			minVV = minVV.MaxInto(vv)
		}(sb)
	}
	wg.Wait()
	wait := time.Since(remStart)
	if firstErr != nil {
		return Route{}, firstErr
	}
	home.remasterOps.Add(1)
	home.partsMoved.Add(uint64(moved))
	home.remastNanos.Add(int64(wait))
	g.finishCross(client, parts, sels, dest, start)
	return Route{Site: dest, MinVV: minVV, Remastered: true, PartsMoved: moved, RemasterWait: wait}, nil
}

// ensureHostedCross materializes the destination's replicas per owning
// shard (partial replication; no-op under full replication).
func (g *Group) ensureHostedCross(parts []uint64, sels []*Selector, site int) error {
	if sels[0].placement == nil {
		return nil
	}
	for i := range parts {
		if err := sels[i].ensureHostedAt(parts[i:i+1], site); err != nil {
			return err
		}
	}
	return nil
}

// finishCross records a decided cross-shard write: transaction counters on
// the home shard (counted once), per-partition load on each owning shard,
// and the stats sample through the inter-shard dispatch.
func (g *Group) finishCross(client int, parts []uint64, sels []*Selector, site int, start time.Time) {
	now := time.Now()
	home := sels[0]
	home.writeTxns.Add(1)
	home.routed[site].Add(1)
	home.routeNanos.Add(int64(now.Sub(start)))
	g.dispatchRecord(client, parts, now)
	for i := range parts {
		sels[i].bumpLoad(parts[i:i+1], site)
	}
}

// routeReadParts routes a read, partition-hinted under partial replication:
// single-shard hints delegate; cross-shard hints intersect the owning
// shards' replica sets and apply the same freshness pick.
func (g *Group) routeReadParts(client int, cvv vclock.Vector, parts []uint64) Route {
	s0 := g.Shard(0)
	if g.n == 1 || len(parts) == 0 || s0.placement == nil {
		return s0.RouteReadParts(client, cvv, parts)
	}
	first := g.ShardOf(parts[0])
	single := true
	for _, p := range parts[1:] {
		if g.ShardOf(p) != first {
			single = false
			break
		}
	}
	if single {
		return g.Shard(first).RouteReadParts(client, cvv, parts)
	}
	// Cross-shard hint: feed read stats to each owning shard and intersect
	// their common hosts.
	var hosts []int
	for si, sub := range g.partsByShard(parts) {
		sel := g.Shard(si)
		sel.stats.RecordRead(client, sub)
		h := sel.commonHosts(sub)
		if hosts == nil {
			hosts = h
			continue
		}
		kept := hosts[:0]
		for _, m := range hosts {
			if containsSite(h, m) {
				kept = append(kept, m)
			}
		}
		hosts = kept
	}
	if len(hosts) == 0 {
		// No common host across shards; fall back to the first partition's
		// replica set — the session retries the remainder on ErrNotHosted.
		return g.ShardFor(parts[0]).RouteReadParts(client, cvv, parts[:1])
	}
	s0.readTxns.Add(1)
	return pickFreshHost(s0, hosts, cvv, g.ShardFor(parts[0]), parts[0])
}

// partsByShard splits a sorted partition list by owning shard.
func (g *Group) partsByShard(parts []uint64) map[int][]uint64 {
	out := make(map[int][]uint64, 2)
	for _, p := range parts {
		si := g.ShardOf(p)
		out[si] = append(out[si], p)
	}
	return out
}

// pickFreshHost applies the selector read policy to an explicit host list:
// a random host already satisfying the client's freshness, else the
// least-lagged live host, else the first partition's master.
func pickFreshHost(s *Selector, hosts []int, cvv vclock.Vector, owner *Selector, part uint64) Route {
	fresh := make([]int, 0, len(hosts))
	bestLag, bestSite := uint64(1)<<63, -1
	for _, i := range hosts {
		if s.downSites[i].Load() {
			continue
		}
		svv := s.sites[i].SVV()
		if svv.DominatesEq(cvv) {
			fresh = append(fresh, i)
			continue
		}
		if lag := svv.LagBehind(cvv); lag < bestLag {
			bestLag, bestSite = lag, i
		}
	}
	if len(fresh) == 0 {
		if bestSite < 0 {
			return Route{Site: owner.MasterOf(part)}
		}
		return Route{Site: bestSite}
	}
	rng := s.rngPool.Get().(*rand.Rand)
	pick := fresh[rng.Intn(len(fresh))]
	s.rngPool.Put(rng)
	return Route{Site: pick}
}

// --- Control-plane dispatch ---

// MasterOf returns the current master of a partition (owning shard's map).
func (g *Group) MasterOf(p uint64) int { return g.ShardFor(p).MasterOf(p) }

// MasteredBy unions every shard's partitions mastered at site. Shard maps
// are disjoint by construction (a shard only creates partitions it owns).
func (g *Group) MasteredBy(site int) []uint64 {
	if g.n == 1 {
		return g.Shard(0).MasteredBy(site)
	}
	var out []uint64
	for i := 0; i < g.n; i++ {
		out = append(out, g.Shard(i).MasteredBy(site)...)
	}
	return out
}

// RegisterPartitionEpoch seeds a partition's master on its owning shard.
func (g *Group) RegisterPartitionEpoch(p uint64, master int, epoch uint64) {
	g.ShardFor(p).RegisterPartitionEpoch(p, master, epoch)
}

// AllocEpochFor allocates a remaster epoch from the owning shard's
// allocator (failover re-grants group their partitions per shard so epochs
// never mix allocators).
func (g *Group) AllocEpochFor(p uint64) (uint64, error) { return g.ShardFor(p).AllocEpoch() }

// MarkDown flags a site failed on every shard.
func (g *Group) MarkDown(site int) {
	for i := 0; i < g.n; i++ {
		g.Shard(i).MarkDown(site)
	}
}

// MarkUp clears a site's failed flag on every shard.
func (g *Group) MarkUp(site int) {
	for i := 0; i < g.n; i++ {
		g.Shard(i).MarkUp(site)
	}
}

// SiteDown reports whether the group considers the site failed (all shards
// agree; MarkDown/MarkUp fan out).
func (g *Group) SiteDown(site int) bool { return g.Shard(0).SiteDown(site) }

// BumpEpoch raises every shard's allocator to at least n (recovery carries
// the checkpointed max epoch; bumping all shards is safe — allocators only
// need monotonicity, not density).
func (g *Group) BumpEpoch(n uint64) {
	for i := 0; i < g.n; i++ {
		g.Shard(i).BumpEpoch(n)
	}
}

// CurrentEpoch returns the highest epoch allocated by any shard.
func (g *Group) CurrentEpoch() uint64 {
	var max uint64
	for i := 0; i < g.n; i++ {
		if e := g.Shard(i).CurrentEpoch(); e > max {
			max = e
		}
	}
	return max
}

// PlacementSnapshot merges every shard's partition map.
func (g *Group) PlacementSnapshot() (map[uint64]int, map[uint64]uint64) {
	if g.n == 1 {
		return g.Shard(0).PlacementSnapshot()
	}
	placement := make(map[uint64]int)
	epochs := make(map[uint64]uint64)
	for i := 0; i < g.n; i++ {
		pl, ep := g.Shard(i).PlacementSnapshot()
		for p, s := range pl {
			if g.ShardOf(p) != i {
				continue // defensive: never let a foreign entry shadow the owner's
			}
			placement[p] = s
			epochs[p] = ep[p]
		}
	}
	return placement, epochs
}

// PlacementTable merges every shard's replica sets (nil under full
// replication).
func (g *Group) PlacementTable() map[uint64][]int {
	if g.n == 1 {
		return g.Shard(0).PlacementTable()
	}
	var out map[uint64][]int
	for i := 0; i < g.n; i++ {
		t := g.Shard(i).PlacementTable()
		if t == nil {
			continue
		}
		if out == nil {
			out = make(map[uint64][]int)
		}
		for p, set := range t {
			if g.ShardOf(p) == i {
				out[p] = set
			}
		}
	}
	return out
}

// AdoptReplicaSets installs recovered replica sets on their owning shards.
func (g *Group) AdoptReplicaSets(sets map[uint64][]int) {
	if g.n == 1 {
		g.Shard(0).AdoptReplicaSets(sets)
		return
	}
	for si, sub := range g.setsByShard(sets) {
		g.Shard(si).AdoptReplicaSets(sub)
	}
}

func (g *Group) setsByShard(sets map[uint64][]int) map[int]map[uint64][]int {
	out := make(map[int]map[uint64][]int, g.n)
	for p, set := range sets {
		si := g.ShardOf(p)
		if out[si] == nil {
			out[si] = make(map[uint64][]int)
		}
		out[si][p] = set
	}
	return out
}

// DropSiteReplicas removes site from every shard's replica sets, returning
// the affected partitions.
func (g *Group) DropSiteReplicas(site int) []uint64 {
	var out []uint64
	for i := 0; i < g.n; i++ {
		out = append(out, g.Shard(i).DropSiteReplicas(site)...)
	}
	return out
}

// ReplicaSet returns a partition's replica set from its owning shard.
func (g *Group) ReplicaSet(p uint64) []int { return g.ShardFor(p).ReplicaSet(p) }

// HostsAt reports whether site hosts a replica of the partition.
func (g *Group) HostsAt(p uint64, site int) bool { return g.ShardFor(p).HostsAt(p, site) }

// AddReplicaMeta records replica membership on the owning shard.
func (g *Group) AddReplicaMeta(p uint64, site int, reason string) bool {
	return g.ShardFor(p).AddReplicaMeta(p, site, reason)
}

// DropReplicaMeta removes replica membership on the owning shard.
func (g *Group) DropReplicaMeta(p uint64, site int, reason string) bool {
	return g.ShardFor(p).DropReplicaMeta(p, site, reason)
}

// PartialPlacement reports whether the group runs partial replication
// (uniform across shards).
func (g *Group) PartialPlacement() bool { return g.Shard(0).PartialPlacement() }

// PlacementInfo merges every shard's placement summary (adds/drops/decision
// logs concatenate; bounds are uniform).
func (g *Group) PlacementInfo() PlacementInfo {
	info := g.Shard(0).PlacementInfo()
	info.Shards = g.n
	for i := 1; i < g.n; i++ {
		in := g.Shard(i).PlacementInfo()
		for p, m := range in.Masters {
			if g.ShardOf(p) != i {
				continue
			}
			info.Masters[p] = m
			if in.Partitions != nil {
				if info.Partitions == nil {
					info.Partitions = make(map[uint64][]int)
				}
				info.Partitions[p] = in.Partitions[p]
			}
		}
		info.Adds += in.Adds
		info.Drops += in.Drops
		info.Decisions = append(info.Decisions, in.Decisions...)
	}
	return info
}

// Weights returns the strategy hyperparameters (uniform across shards).
func (g *Group) Weights() Weights { return g.Shard(0).Weights() }

// SetWeights replaces the strategy hyperparameters on every shard.
func (g *Group) SetWeights(w Weights) {
	for i := 0; i < g.n; i++ {
		g.Shard(i).SetWeights(w)
	}
}

// Metrics aggregates routing counters across shards. Latency means weight
// by each shard's transaction counts.
func (g *Group) Metrics() Metrics {
	if g.n == 1 {
		return g.Shard(0).Metrics()
	}
	var out Metrics
	var routeNanos, remastNanos int64
	for i := 0; i < g.n; i++ {
		s := g.Shard(i)
		m := s.Metrics()
		out.WriteTxns += m.WriteTxns
		out.ReadTxns += m.ReadTxns
		out.RemasterTxns += m.RemasterTxns
		out.PartsMoved += m.PartsMoved
		if out.RoutedPerSite == nil {
			out.RoutedPerSite = make([]uint64, len(m.RoutedPerSite))
		}
		for j, v := range m.RoutedPerSite {
			out.RoutedPerSite[j] += v
		}
		routeNanos += s.routeNanos.Load()
		remastNanos += s.remastNanos.Load()
	}
	if out.WriteTxns > 0 {
		out.AvgRouteTime = time.Duration(routeNanos / int64(out.WriteTxns))
	}
	if out.RemasterTxns > 0 {
		out.AvgRemaster = time.Duration(remastNanos / int64(out.RemasterTxns))
	}
	return out
}

// instrument registers the per-shard and group metrics. Shard selectors are
// built without a registry (their unlabeled series would collide), so the
// group publishes shard-labeled collectors over their counters instead, plus
// the unlabeled routing and remaster series as sums over shards.
func (g *Group) instrument(reg *obs.Registry) {
	if reg == nil || g.n == 1 {
		return
	}
	reg.Help("dynamast_route_total", "Routing decisions by transaction type.")
	reg.Help("dynamast_remaster_total", "Write transactions that required mastership transfer.")
	reg.Help("dynamast_remaster_partitions_total", "Partitions whose mastership was transferred.")
	reg.Func("dynamast_remaster_total", obs.KindCounter, func() float64 {
		return float64(g.Metrics().RemasterTxns)
	})
	reg.Func("dynamast_remaster_partitions_total", obs.KindCounter, func() float64 {
		return float64(g.Metrics().PartsMoved)
	})
	reg.Func("dynamast_route_total", obs.KindCounter, func() float64 {
		return float64(g.Metrics().WriteTxns)
	}, obs.L("type", "write"))
	reg.Func("dynamast_route_total", obs.KindCounter, func() float64 {
		return float64(g.Metrics().ReadTxns)
	}, obs.L("type", "read"))
	reg.Help("dynamast_selector_shards", "Router shards in the selector control plane.")
	reg.Help("dynamast_selector_shard_routes_total", "Routing decisions handled per router shard (writes + reads).")
	reg.Help("dynamast_selector_shard_write_routes_total", "Write routing decisions handled per router shard.")
	reg.Help("dynamast_selector_shard_remasters_total", "Remastering decisions executed per router shard.")
	reg.Help("dynamast_selector_shard_partitions", "Partitions tracked per router shard.")
	reg.Help("dynamast_selector_shard_cross_writes_total", "Write routes whose partition set spanned multiple shards.")
	reg.Help("dynamast_selector_shard_cross_hints_total", "Co-access stat samples exchanged over the inter-shard channel.")
	reg.Gauge("dynamast_selector_shards").Set(float64(g.n))
	for i := 0; i < g.n; i++ {
		i := i
		label := obs.L("shard", fmt.Sprint(i))
		reg.Func("dynamast_selector_shard_routes_total", obs.KindCounter, func() float64 {
			m := g.Shard(i).Metrics()
			return float64(m.WriteTxns + m.ReadTxns)
		}, label)
		reg.Func("dynamast_selector_shard_write_routes_total", obs.KindCounter, func() float64 {
			return float64(g.Shard(i).Metrics().WriteTxns)
		}, label)
		reg.Func("dynamast_selector_shard_remasters_total", obs.KindCounter, func() float64 {
			return float64(g.Shard(i).Metrics().RemasterTxns)
		}, label)
		reg.Func("dynamast_selector_shard_partitions", obs.KindGauge, func() float64 {
			total, _ := g.Shard(i).shardResidency()
			return float64(total)
		}, label)
	}
	reg.Func("dynamast_selector_shard_cross_writes_total", obs.KindCounter, func() float64 {
		return float64(g.crossWrites.Load())
	})
	reg.Func("dynamast_selector_shard_cross_hints_total", obs.KindCounter, func() float64 {
		return float64(g.crossHints.Load())
	})
}
