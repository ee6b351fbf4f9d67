package selector

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dynamast/internal/obs"
	"dynamast/internal/sitemgr"
	"dynamast/internal/storage"
	"dynamast/internal/vclock"
)

// The selector control plane. A Group splits it into n router shards, each
// owning a contiguous range of the partition-id hash space (RouterShardOf, a
// pure function of the partition id). Each shard is a Replicated tier: a
// leader Selector holding the shard's partition map, stats stripes, epoch
// allocator and placement state, its standbys, and — under HA — its own
// lease (one key of a KeyedLeaseStore). One shard is the same code with
// n = 1.
//
// The Group routes; the shard selectors hold state and run chains:
//
//   - A write (routeWrite) looks up its partitions on their owning shards,
//     locks them in global id order, and, when they are mastered apart,
//     decides one destination over a read-only view of the whole group
//     (decide) before executing one release/grant chain per (shard, source
//     site). Each chain is stamped from its own shard's epoch allocator, so
//     no epoch is ever compared across shards.
//   - A read (routeRead) picks a fresh-enough site among the common hosts of
//     its hinted partitions.
//   - Co-access statistics crossing a shard boundary travel over a small
//     inter-shard channel (dispatchRecord): each decided write's full
//     partition set is delivered to every shard owning a partition of the
//     write OR of the client's previous write, so both sides of every
//     cross-shard pair record it.
//   - Routing counters and instruments live on the Group, so they survive
//     a shard leader's promotion.
//   - Sessions route through the Front (cache.go), which serves reads and
//     single-sited writes off a gossiped read-only placement cache whenever
//     the control plane has more than one node.

// MaxRouterShards bounds the shard count (owner sets are uint64 bitmasks).
const MaxRouterShards = 64

// RouterShardOf maps a partition id to its router shard in [0, n): a pure
// function (Fibonacci multiply-shift onto n contiguous hash ranges) shared
// with the sites' range-scoped fences and the dynactl tooling.
func RouterShardOf(part uint64, n int) int { return sitemgr.RouterShard(part, n) }

// GroupConfig configures a router group.
type GroupConfig struct {
	// Shards are the per-shard Replicated tiers, indexed by shard; shard i's
	// selectors must be built with Config.Shard = i, Config.Shards = n.
	Shards []*Replicated
	// GossipInterval is the placement cache's anti-entropy pull period
	// (bounds cache staleness; 0 = DefaultGossipInterval).
	GossipInterval time.Duration
	// Obs receives the routing, per-shard and cache metrics.
	Obs *obs.Registry
}

// routeCounters are one shard's routing counters: writes count on the shard
// owning the write set's lowest partition, reads on the shard of the first
// hinted partition (shard 0 when unhinted).
type routeCounters struct {
	writeTxns   atomic.Uint64
	readTxns    atomic.Uint64
	remasterOps atomic.Uint64 // write txns that required remastering
	partsMoved  atomic.Uint64
	routeNanos  atomic.Int64 // cumulative routing decision time
	remastNanos atomic.Int64 // cumulative remastering wait time
	_           [16]byte     // pad shards apart
}

// Group is the selector control plane: every entry point dispatches by
// RouterShardOf.
type Group struct {
	repls       []*Replicated
	n, m        int
	partitioner sitemgr.Partitioner
	allSites    []int // 0..m-1: the read host set under full replication
	cache       *PlacementCache
	front       *Front

	ctr    []routeCounters // per shard
	routed []atomic.Uint64 // per destination site

	// recent is the inter-shard co-access hint channel: per client, a
	// *atomic.Uint64 holding the owner-shard mask of its last routed write.
	recent sync.Map

	// Read-routing RNG: pooled so concurrent reads never share (or lock)
	// one generator. Pool misses seed a fresh generator from seed ⊕ a
	// split counter, keeping runs with the same seed statistically
	// reproducible.
	rngPool  sync.Pool
	rngSplit atomic.Uint64

	crossWrites atomic.Uint64 // write routes spanning >1 shard
	crossHints  atomic.Uint64 // stat samples delivered beyond their own shards

	routeDur, remastDur *obs.Histogram
	// Last winning remaster decision's Equation 8 feature scores.
	feat [4]*obs.Gauge
}

// NewGroup builds the control plane over per-shard Replicated tiers. The
// front gets a placement cache whenever the control plane has more than one
// node: several shards, or standbys behind each leader.
func NewGroup(cfg GroupConfig) (*Group, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("selector: group requires at least one shard")
	}
	if len(cfg.Shards) > MaxRouterShards {
		return nil, fmt.Errorf("selector: %d shards exceeds the maximum %d", len(cfg.Shards), MaxRouterShards)
	}
	s0 := cfg.Shards[0].Master
	g := &Group{
		repls:       cfg.Shards,
		n:           len(cfg.Shards),
		m:           s0.m,
		partitioner: s0.partitioner,
		ctr:         make([]routeCounters, len(cfg.Shards)),
		routed:      make([]atomic.Uint64, s0.m),
	}
	for i := 0; i < g.m; i++ {
		g.allSites = append(g.allSites, i)
	}
	g.rngPool.New = func() any {
		// splitmix64 over a per-generator counter, xored with the seed.
		z := g.rngSplit.Add(1) * 0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return rand.New(rand.NewSource(s0.seed ^ int64(z^(z>>31))))
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

// Shards returns the shard count.
func (g *Group) Shards() int { return g.n }

// Shard returns shard i's current leader selector.
func (g *Group) Shard(i int) *Selector { return g.repls[i].Leader() }

// ShardOf returns the shard owning a partition.
func (g *Group) ShardOf(part uint64) int { return RouterShardOf(part, g.n) }

// ShardFor returns the leader selector of the shard owning a partition.
func (g *Group) ShardFor(part uint64) *Selector { return g.repls[g.ShardOf(part)].Leader() }

// Stop terminates the group's background work (the cache gossip loop).
func (g *Group) Stop() {
	if g.cache != nil {
		g.cache.stopLoop()
	}
}

// RouterFor returns a client's router: the group's one Front, shared by
// every client (each call carries its client id).
func (g *Group) RouterFor(client int) *Front { return g.front }

// --- The scoring view ---

// hint resolves a partition's master hint read-only: the owning shard's
// lock-free hint if the partition exists, its initial placement otherwise.
func (g *Group) hint(p uint64) int {
	sel := g.ShardFor(p)
	if m, ok := sel.peekMaster(p); ok {
		return m
	}
	return sel.initial(p)
}

// accessWeight reads a partition's access weight from its owning shard.
func (g *Group) accessWeight(p uint64) float64 { return g.ShardFor(p).stats.AccessWeight(p) }

// coAccess reads partition d1's co-access row from its owning shard.
func (g *Group) coAccess(d1 uint64, intra bool, buf []CoPair) ([]CoPair, float64) {
	return g.ShardFor(d1).stats.CoAccess(d1, intra, buf)
}

// siteLoads appends the materialized per-site load summed over every shard.
func (g *Group) siteLoads(buf []float64) []float64 {
	buf = append(buf, make([]float64, g.m)...)
	for i := 0; i < g.n; i++ {
		sel := g.Shard(i)
		for s := range buf {
			buf[s] += loadFloat(&sel.siteLoad[s])
		}
	}
	return buf
}

// --- Statistics ---

// ownerMask returns the set of shards owning partitions of parts as a
// bitmask.
func (g *Group) ownerMask(parts []uint64) uint64 {
	var mask uint64
	for _, p := range parts {
		mask |= 1 << uint(g.ShardOf(p))
	}
	return mask
}

// shardRuns calls f once per maximal run of consecutive partitions owned by
// one shard.
func (g *Group) shardRuns(parts []uint64, f func(si int, run []uint64)) {
	for i := 0; i < len(parts); {
		si, j := g.ShardOf(parts[i]), i+1
		for j < len(parts) && g.ShardOf(parts[j]) == si {
			j++
		}
		f(si, parts[i:j])
		i = j
	}
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
// in-window pair matches an unsharded tracker's. The per-client owner mask
// is read lock-free and rewritten only when it changes.
func (g *Group) dispatchRecord(client int, parts []uint64, now time.Time) {
	cur := g.ownerMask(parts)
	v, ok := g.recent.Load(client)
	if !ok {
		v, _ = g.recent.LoadOrStore(client, new(atomic.Uint64))
	}
	last := v.(*atomic.Uint64)
	prev := last.Load()
	if prev != cur {
		last.Store(cur)
	}
	mask := cur | prev
	if mask != cur {
		g.crossHints.Add(1)
	}
	for ; mask != 0; mask &= mask - 1 {
		g.Shard(bits.TrailingZeros64(mask)).stats.RecordWrite(client, parts, now)
	}
}

// --- Write routing ---

// partRef is one write-set partition's entry on its owning shard's leader.
type partRef struct {
	sel *Selector
	in  *partInfo
}

// routeWrite routes a write (§V-B, Algorithm 1): look up every partition on
// its owning shard's leader, shared-lock them in global id order and return
// their master if they share one; otherwise lock them exclusively, recheck,
// decide one destination over the group view, and run one remaster chain
// per (shard, source site). A sampled sc makes every chain record its
// release and grant spans as children of sc.Span.
func (g *Group) routeWrite(client int, writeSet []storage.RowRef, cvv vclock.Vector, sc obs.SpanContext) (Route, error) {
	start := time.Now()
	parts := writeParts(g.partitioner, writeSet)
	if len(parts) == 0 {
		g.ctr[0].writeTxns.Add(1)
		return Route{Site: 0}, nil
	}
	var buf [8]partRef // small write sets look up without an allocation
	refs, err := g.lookup(parts, buf[:0])
	if err != nil {
		return Route{}, err
	}

	// Fast path: shared locks, then the single-master check. Global sorted
	// id order is consistent with every shard's, so no lock cycles.
	for _, r := range refs {
		r.in.mu.RLock()
	}
	master, single := singleMaster(refs)
	for _, r := range refs {
		r.in.mu.RUnlock()
	}
	if single {
		return g.finishSingle(client, parts, master, start)
	}

	// Slow path: exclusive locks in the same order; the recheck covers
	// changes made between dropping the shared locks and taking these.
	for _, r := range refs {
		r.in.mu.Lock()
	}
	defer func() {
		for _, r := range refs {
			r.in.mu.Unlock()
		}
	}()
	if master, single = singleMaster(refs); single {
		// A concurrent client with a common write set already remastered.
		return g.finishSingle(client, parts, master, start)
	}
	masters := make([]int, len(refs))
	for i, r := range refs {
		masters[i] = r.in.master
	}
	dest, feat, err := refs[0].sel.decide(g, parts, masters, cvv)
	if err != nil {
		return Route{}, err
	}
	for i, f := range feat {
		g.feat[i].Set(f)
	}
	remStart := time.Now()
	minVV, moved, err := remaster(parts, refs, dest, sc)
	wait := time.Since(remStart)
	if err != nil {
		return Route{}, err
	}
	c := &g.ctr[g.ShardOf(parts[0])]
	c.remasterOps.Add(1)
	c.partsMoved.Add(uint64(moved))
	c.remastNanos.Add(int64(wait))
	g.remastDur.ObserveDuration(wait)
	g.finishWrite(client, parts, dest, start)
	return Route{Site: dest, MinVV: minVV, Remastered: true, PartsMoved: moved, RemasterWait: wait}, nil
}

// lookup appends each partition's entry on its owning shard's leader to
// refs, loading each leader once; a deposed leader fails the route with the
// retryable ErrNoLeader.
func (g *Group) lookup(parts []uint64, refs []partRef) ([]partRef, error) {
	type leader struct {
		si  int
		sel *Selector
	}
	leaders := make([]leader, 0, 4) // on the stack up to four shards
	for _, p := range parts {
		si := g.ShardOf(p)
		j := slices.IndexFunc(leaders, func(l leader) bool { return l.si == si })
		if j < 0 {
			sel := g.Shard(si)
			if sel.Deposed() {
				return nil, ErrNoLeader
			}
			j = len(leaders)
			leaders = append(leaders, leader{si, sel})
		}
		sel := leaders[j].sel
		refs = append(refs, partRef{sel: sel, in: sel.part(p)})
	}
	if len(leaders) > 1 {
		g.crossWrites.Add(1)
	}
	return refs, nil
}

// singleMaster returns the write set's master if every partition has the
// same one. The caller holds the partitions' locks.
func singleMaster(refs []partRef) (int, bool) {
	m := refs[0].in.master
	for _, r := range refs[1:] {
		if r.in.master != m {
			return m, false
		}
	}
	return m, true
}

// finishSingle completes a write whose partitions share master: its replicas
// are materialized there (partial replication) and the route is recorded.
func (g *Group) finishSingle(client int, parts []uint64, master int, start time.Time) (Route, error) {
	var err error
	g.shardRuns(parts, func(si int, run []uint64) {
		if err == nil {
			err = g.Shard(si).ensureHostedAt(run, master)
		}
	})
	if err != nil {
		return Route{}, err
	}
	g.finishWrite(client, parts, master, start)
	return Route{Site: master}, nil
}

// finishWrite records a decided write: routing counters, the statistics
// sample through dispatchRecord, and each owning shard's site load. The
// front's cached routes record through it too.
func (g *Group) finishWrite(client int, parts []uint64, site int, start time.Time) {
	now := time.Now()
	elapsed := now.Sub(start)
	c := &g.ctr[g.ShardOf(parts[0])]
	c.writeTxns.Add(1)
	c.routeNanos.Add(int64(elapsed))
	g.routed[site].Add(1)
	g.routeDur.Observe(elapsed.Seconds())
	g.dispatchRecord(client, parts, now)
	g.shardRuns(parts, func(si int, run []uint64) {
		g.Shard(si).bumpLoad(float64(len(run)), site)
	})
}

// remaster moves every partition of the write set not already at dest, in
// one chain per (owning shard, source site), and returns the element-wise
// max of the grant vectors plus the number of partitions moved. A shard's
// chain uses epochs from its own allocator, so a single shard's ErrNoLeader
// (mid-promotion) fails only its chain — the session retry re-routes the
// whole set. The caller holds the partitions' exclusive locks. A single
// chain — nearly every decision — runs inline; several overlap on their own
// goroutines.
func remaster(parts []uint64, refs []partRef, dest int, sc obs.SpanContext) (vclock.Vector, int, error) {
	var chains []remasterChain // in write-set order
	for i, r := range refs {
		if r.in.master == dest {
			continue
		}
		ci := slices.IndexFunc(chains, func(c remasterChain) bool { return c.sel == r.sel && c.src == r.in.master })
		if ci < 0 {
			ci = len(chains)
			chains = append(chains, remasterChain{sel: r.sel, src: r.in.master})
		}
		chains[ci].ids = append(chains[ci].ids, parts[i])
		chains[ci].infos = append(chains[ci].infos, r.in)
	}
	if len(chains) == 1 {
		return chains[0].sel.runChain(&chains[0], dest, sc)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		out   vclock.Vector
		first error
		moved int
	)
	for i := range chains {
		wg.Add(1)
		go func(c *remasterChain) {
			defer wg.Done()
			vv, n, err := c.sel.runChain(c, dest, sc)
			mu.Lock()
			defer mu.Unlock()
			out = out.MaxInto(vv)
			moved += n
			if err != nil && first == nil {
				first = err
			}
		}(&chains[i])
	}
	wg.Wait()
	if first != nil {
		return nil, moved, first
	}
	return out, moved, nil
}

// --- Read routing ---

// routeRead routes a read-only transaction over one host set: every site
// when there are no hints or replication is full, otherwise the common hosts
// of the hinted partitions, falling back to the first partition's replica
// set (the session retries the remainder on ErrNotHosted). Hinted reads
// under partial replication feed the owning shards' read statistics.
func (g *Group) routeRead(client int, cvv vclock.Vector, parts []uint64) Route {
	hosts := g.allSites
	if len(parts) > 0 && g.PartialPlacement() {
		hosts = nil
		g.shardRuns(parts, func(si int, run []uint64) {
			sel := g.Shard(si)
			sel.stats.RecordRead(client, run)
			if h := sel.commonHosts(run); run[0] == parts[0] {
				hosts = h
			} else {
				hosts = intersectSites(hosts, h)
			}
		})
		if len(hosts) == 0 {
			hosts = g.ShardFor(parts[0]).commonHosts(parts[:1])
		}
	}
	return g.pickRead(hosts, cvv, parts)
}

// pickRead is the read policy (§IV-B): a random host whose version vector
// already satisfies the session's freshness, spreading load while
// minimizing blocking; else the least-lagged live host (the transaction
// blocks there the shortest time); else, every host being down, the first
// partition's master (site 0 when unhinted), so the error surfaced is the
// site's own.
func (g *Group) pickRead(hosts []int, cvv vclock.Vector, parts []uint64) Route {
	home := 0
	if len(parts) > 0 {
		home = g.ShardOf(parts[0])
	}
	g.ctr[home].readTxns.Add(1)
	s0 := g.Shard(0)
	fresh := make([]int, 0, 16)
	bestLag, bestSite := uint64(1)<<63, -1
	for _, i := range hosts {
		if s0.downSites[i].Load() {
			continue // reads never route to a failed site
		}
		svv := s0.sites[i].SVV()
		if svv.DominatesEq(cvv) {
			fresh = append(fresh, i)
			continue
		}
		if lag := svv.LagBehind(cvv); lag < bestLag {
			bestLag, bestSite = lag, i
		}
	}
	switch {
	case len(fresh) > 0:
		rng := g.rngPool.Get().(*rand.Rand)
		pick := fresh[rng.Intn(len(fresh))]
		g.rngPool.Put(rng)
		return Route{Site: pick}
	case bestSite >= 0:
		return Route{Site: bestSite}
	case len(parts) > 0:
		return Route{Site: g.MasterOf(parts[0])}
	}
	return Route{Site: 0}
}

// --- Control-plane dispatch ---

// MasterOf returns the current master of a partition (owning shard's map).
func (g *Group) MasterOf(p uint64) int { return g.ShardFor(p).MasterOf(p) }

// MasteredBy unions every shard's partitions mastered at site, in ascending
// order, so failover re-grants them in the same order on every run. Shard
// maps are disjoint by construction (a shard only creates partitions it
// owns).
func (g *Group) MasteredBy(site int) []uint64 {
	var out []uint64
	for i := 0; i < g.n; i++ {
		out = append(out, g.Shard(i).MasteredBy(site)...)
	}
	slices.Sort(out)
	return out
}

// RegisterPartitionEpoch seeds a partition's master on its owning shard.
func (g *Group) RegisterPartitionEpoch(p uint64, master int, epoch uint64) {
	g.ShardFor(p).RegisterPartitionEpoch(p, master, epoch)
}

// MarkDown flags a site failed on every shard.
func (g *Group) MarkDown(site int) {
	for i := 0; i < g.n; i++ {
		g.Shard(i).MarkDown(site)
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
	sub := make([]map[uint64][]int, g.n)
	for p, set := range sets {
		si := g.ShardOf(p)
		if sub[si] == nil {
			sub[si] = make(map[uint64][]int)
		}
		sub[si][p] = set
	}
	for si, s := range sub {
		g.Shard(si).AdoptReplicaSets(s)
	}
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

// Metrics is a snapshot of the routing counters.
type Metrics struct {
	WriteTxns     uint64
	ReadTxns      uint64
	RemasterTxns  uint64 // write txns that required remastering
	PartsMoved    uint64
	RoutedPerSite []uint64
	AvgRouteTime  time.Duration // mean routing decision latency
	AvgRemaster   time.Duration // mean release/grant wait of remastering decisions
}

// Metrics sums the routing counters over shards. They live on the group, so
// a shard leader's promotion never resets them.
func (g *Group) Metrics() Metrics {
	out := Metrics{RoutedPerSite: make([]uint64, g.m)}
	var routeNanos, remastNanos int64
	for i := range g.ctr {
		c := &g.ctr[i]
		out.WriteTxns += c.writeTxns.Load()
		out.ReadTxns += c.readTxns.Load()
		out.RemasterTxns += c.remasterOps.Load()
		out.PartsMoved += c.partsMoved.Load()
		routeNanos += c.routeNanos.Load()
		remastNanos += c.remastNanos.Load()
	}
	for i := range g.routed {
		out.RoutedPerSite[i] = g.routed[i].Load()
	}
	if out.WriteTxns > 0 {
		out.AvgRouteTime = time.Duration(routeNanos / int64(out.WriteTxns))
	}
	if out.RemasterTxns > 0 {
		out.AvgRemaster = time.Duration(remastNanos / int64(out.RemasterTxns))
	}
	return out
}

// instrument registers the routing metrics (collectors over the group's
// counters), the strategy-feature and placement gauges, and the
// shard-labeled per-shard collectors.
func (g *Group) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Help("dynamast_route_total", "Routing decisions by transaction type.")
	reg.Help("dynamast_routed_total", "Write transactions routed per destination site.")
	reg.Help("dynamast_remaster_total", "Write transactions that required mastership transfer.")
	reg.Help("dynamast_remaster_partitions_total", "Partitions whose mastership was transferred.")
	reg.Help("dynamast_route_seconds", "Routing decision latency (including any remaster wait).")
	reg.Help("dynamast_remaster_seconds", "Release/grant RPC-chain wait per remastering decision.")
	reg.Help("dynamast_strategy_feature", "Equation 8 feature scores of the last remaster decision.")
	reg.Help("dynamast_selector_partitions", "Partitions tracked in the selector's partition maps.")
	counter := func(name string, v func() uint64, labels ...obs.Label) {
		reg.Func(name, obs.KindCounter, func() float64 { return float64(v()) }, labels...)
	}
	counter("dynamast_route_total", func() uint64 { return g.Metrics().WriteTxns }, obs.L("type", "write"))
	counter("dynamast_route_total", func() uint64 { return g.Metrics().ReadTxns }, obs.L("type", "read"))
	counter("dynamast_remaster_total", func() uint64 { return g.Metrics().RemasterTxns })
	counter("dynamast_remaster_partitions_total", func() uint64 { return g.Metrics().PartsMoved })
	for s := range g.routed {
		counter("dynamast_routed_total", g.routed[s].Load, obs.Site(s))
	}
	g.routeDur = reg.Histogram("dynamast_route_seconds")
	g.remastDur = reg.Histogram("dynamast_remaster_seconds")
	for i, f := range []string{"balance", "delay", "intra", "inter"} {
		g.feat[i] = reg.Gauge("dynamast_strategy_feature", obs.L("feature", f))
	}
	reg.Func("dynamast_selector_partitions", obs.KindGauge, func() float64 {
		total := 0
		for i := 0; i < g.n; i++ {
			total += g.Shard(i).parts.Len()
		}
		return float64(total)
	})
	if g.PartialPlacement() {
		reg.Help("dynamast_placement_replicas_total", "Replica-set memberships across all tracked partitions.")
		reg.Help("dynamast_placement_adds_total", "Replica additions performed by the placement layer.")
		reg.Help("dynamast_placement_drops_total", "Replica drops performed by the placement layer.")
		placement := func(f func(ps *placementState) uint64) func() uint64 {
			return func() uint64 {
				var n uint64
				for i := 0; i < g.n; i++ {
					n += f(g.Shard(i).placement)
				}
				return n
			}
		}
		reg.Func("dynamast_placement_replicas_total", obs.KindGauge, func() float64 {
			return float64(placement(func(ps *placementState) uint64 {
				ps.mu.RLock()
				defer ps.mu.RUnlock()
				var n uint64
				for _, set := range ps.sets {
					n += uint64(len(set))
				}
				return n
			})())
		})
		counter("dynamast_placement_adds_total", placement(func(ps *placementState) uint64 { return ps.adds.Load() }))
		counter("dynamast_placement_drops_total", placement(func(ps *placementState) uint64 { return ps.drops.Load() }))
	}

	reg.Help("dynamast_selector_shards", "Router shards in the selector control plane.")
	reg.Help("dynamast_selector_shard_routes_total", "Routing decisions handled per router shard (writes + reads).")
	reg.Help("dynamast_selector_shard_write_routes_total", "Write routing decisions handled per router shard.")
	reg.Help("dynamast_selector_shard_remasters_total", "Remastering decisions executed per router shard.")
	reg.Help("dynamast_selector_shard_partitions", "Partitions tracked per router shard.")
	reg.Help("dynamast_selector_shard_cross_writes_total", "Write routes whose partition set spanned multiple shards.")
	reg.Help("dynamast_selector_shard_cross_hints_total", "Co-access stat samples exchanged over the inter-shard channel.")
	reg.Gauge("dynamast_selector_shards").Set(float64(g.n))
	for i := range g.ctr {
		c, label := &g.ctr[i], obs.L("shard", fmt.Sprint(i))
		counter("dynamast_selector_shard_routes_total", func() uint64 {
			return c.writeTxns.Load() + c.readTxns.Load()
		}, label)
		counter("dynamast_selector_shard_write_routes_total", c.writeTxns.Load, label)
		counter("dynamast_selector_shard_remasters_total", c.remasterOps.Load, label)
		reg.Func("dynamast_selector_shard_partitions", obs.KindGauge, func() float64 {
			return float64(g.Shard(i).parts.Len())
		}, label)
	}
	counter("dynamast_selector_shard_cross_writes_total", g.crossWrites.Load)
	counter("dynamast_selector_shard_cross_hints_total", g.crossHints.Load)
}
