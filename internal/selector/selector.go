package selector

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dynamast/internal/obs"
	"dynamast/internal/sitemgr"
	"dynamast/internal/storage"
	"dynamast/internal/transport"
	"dynamast/internal/vclock"
)

// DataSite is the selector's view of a data site: the mastership-transfer
// RPCs plus the version vector used by the refresh-delay feature and read
// routing. *sitemgr.Site implements it; multi-process deployments use an
// RPC-backed implementation. The epoch parameter fences and memoizes the
// transfer (see sitemgr): retried calls with the same epoch are idempotent,
// stale epochs are rejected; epoch 0 disables fencing (initial placement).
type DataSite interface {
	ID() int
	SVV() vclock.Vector
	Release(parts []uint64, to int, epoch uint64) (vclock.Vector, error)
	Grant(parts []uint64, relVV vclock.Vector, from int, epoch uint64) (vclock.Vector, error)
}

// Config describes a site selector.
type Config struct {
	// Sites are the data sites, indexed by site id.
	Sites []DataSite
	// Partitioner maps rows to partitions; must match the sites'.
	Partitioner sitemgr.Partitioner
	// InitialMaster gives the master of a partition first seen by the
	// selector; nil places everything at site 0 (DynaMast is evaluated
	// with no curated initial placement).
	InitialMaster func(part uint64) int
	// Weights are the strategy hyperparameters (Equation 8).
	Weights Weights
	// Stats configures the statistics tracker.
	Stats StatsConfig
	// Net simulates selector <-> site traffic for release/grant.
	Net *transport.Network
	// Seed drives read-routing randomization.
	Seed int64
	// MinReplicas, when positive, enables partial replication: each
	// partition carries an explicit replica set of at least MinReplicas and
	// at most MaxReplicas sites (MaxReplicas <= 0 means no upper bound
	// beyond the site count). Zero preserves full replication.
	MinReplicas int
	// MaxReplicas bounds replica-set growth under partial replication.
	MaxReplicas int
	// Obs receives the selector's metrics (routing counters, remaster
	// latency, strategy feature scores); nil disables instrumentation.
	Obs *obs.Registry
	// Spans receives the release/grant spans of sampled traced routing
	// decisions (Front.Write); nil disables span recording.
	Spans *obs.SpanRecorder
	// Hooks wire this selector into a sharded Group (zero value = the
	// stand-alone, whole-map selector). They live in the Config so an HA
	// promotion's rebuilt selector keeps its shard identity.
	Hooks ShardHooks
}

// ShardHooks connect one router shard's selector to its Group. Every hook is
// optional; a nil hook falls back to the selector's own state, which is
// exactly the single-shard behavior.
type ShardHooks struct {
	// Owns reports whether a partition belongs to this shard's range. A
	// shard never creates (or grants) partitions outside its range: foreign
	// ids reach it only through scoring, which resolves them read-only via
	// ForeignMaster.
	Owns func(part uint64) bool
	// ForeignMaster resolves the (possibly stale) master hint of a
	// partition outside this shard's range, for the co-access scoring
	// features. Never creates state anywhere.
	ForeignMaster func(part uint64) int
	// Record replaces the local stats feed: the Group dispatches each
	// decided write's full partition set to every shard whose stripes need
	// the sample (cross-shard co-access accounting).
	Record func(client int, parts []uint64, now time.Time)
	// AccessWeight and CoAccess read access statistics across the Group
	// (each shard's tracker only sees samples relevant to its own range).
	AccessWeight func(part uint64) float64
	// CoAccess reads partition d1's raw co-access row (intra or inter
	// transaction) from the owning shard's tracker; same contract as
	// Stats.CoAccess.
	CoAccess func(d1 uint64, intra bool, buf []CoPair) ([]CoPair, float64)
	// SiteLoads sums materialized per-site load across all shards (the
	// balance feature must see global load, not one shard's slice).
	SiteLoads func() []float64
}

// Route is a routing decision returned to the client.
type Route struct {
	// Site is the execution site.
	Site int
	// MinVV is the minimum version vector the transaction must begin at
	// (element-wise max of grant vectors; nil when no remastering
	// happened).
	MinVV vclock.Vector
	// Remastered reports whether the decision required mastership
	// transfers.
	Remastered bool
	// PartsMoved is the number of partitions transferred.
	PartsMoved int
	// RemasterWait is the time spent in the release/grant RPC chains
	// (zero when no remastering happened); lifecycle traces subtract it
	// from the routing stage.
	RemasterWait time.Duration
}

// partInfo is the per-partition-group metadata of §V-B: current master
// location and a readers-writer lock serializing routing against
// remastering. hint mirrors master lock-free for the scoring heuristic,
// which must not take partition locks it does not hold (lock-order safety):
// a stale hint can only skew a score, never correctness.
type partInfo struct {
	mu     sync.RWMutex
	master int
	epoch  uint64 // remaster epoch that installed master (0 = initial placement)
	hint   atomic.Int32
}

func (p *partInfo) setMaster(m int, epoch uint64) {
	p.master = m
	p.epoch = epoch
	p.hint.Store(int32(m))
}

// partShardCount shards the partition map so concurrent routing decisions
// looking up disjoint partitions do not serialize on one map lock. Must be
// a power of two.
const partShardCount = 64

// partShard is one slice of the partition map.
type partShard struct {
	mu sync.RWMutex
	m  map[uint64]*partInfo
	_  [24]byte // pad shards apart
}

// shardOf spreads partition ids (often small and dense) across shards with
// a Fibonacci multiply-shift.
func shardOf(id uint64) uint64 {
	return (id * 0x9E3779B97F4A7C15) >> 32 & (partShardCount - 1)
}

// Selector routes transactions and remasters data (§IV, §V-B).
type Selector struct {
	sites       []DataSite
	m           int
	partitioner sitemgr.Partitioner
	initial     func(part uint64) int
	weights     atomic.Pointer[Weights]
	stats       *Stats
	net         *transport.Network

	shards [partShardCount]partShard

	// Read-routing RNG: pooled so concurrent RouteRead calls never share
	// (or lock) one generator. Pool misses seed a fresh generator from
	// seed ⊕ a split counter, keeping runs with the same Config.Seed
	// statistically reproducible.
	rngPool  sync.Pool
	rngSplit atomic.Uint64
	seed     int64

	// Materialized per-site load (sum of mastered partitions' access
	// weights), used by the balance feature. Float64 bits in atomics;
	// bumpLoad CAS-adds and decays when the running total crosses the
	// stats decay threshold.
	siteLoad  []atomic.Uint64
	loadTotal atomic.Uint64
	decaying  atomic.Bool

	routed      []atomic.Uint64 // per-site routed write transactions
	writeTxns   atomic.Uint64
	readTxns    atomic.Uint64
	remasterOps atomic.Uint64 // transactions that required remastering
	partsMoved  atomic.Uint64 // partitions transferred
	routeNanos  atomic.Int64  // cumulative routing decision time
	remastNanos atomic.Int64  // cumulative remastering wait time

	// epochs allocates remaster-chain epochs (monotonic; 0 is reserved for
	// unfenced operations). The default source is a process-local counter;
	// HA deployments install a lease-validated allocator (see lease.go)
	// whose Alloc fails once this selector is deposed, so a deposed leader
	// can never mint an epoch that out-fences the new leader's.
	epochs epochSource

	// deposed marks this selector as no longer the control-plane leader
	// (lease lost, or its process killed): write routing fails fast with
	// the retryable ErrNoLeader, and first-sight partition creation stops
	// issuing placement grants. Read routing keeps working — it only
	// consults site version vectors, which staleness cannot corrupt.
	deposed atomic.Bool

	// feed, when set, publishes committed mastership flips to the front's
	// placement cache.
	feed atomic.Pointer[func(parts []uint64, site int, epoch uint64)]

	// downSites flags sites declared failed (heartbeat misses); routing and
	// remastering exclude them until failover completes.
	downSites []atomic.Bool

	// placement tracks per-partition replica sets under partial replication
	// (nil on fully replicating selectors — the hot paths branch on it).
	placement *placementState
	// ensureReplica materializes a replica before routing depends on it
	// (the core cluster's AddReplica); see SetReplicaEnsurer.
	ensureReplica func(parts []uint64, site int) error

	spans *obs.SpanRecorder

	// hooks wire this selector into a sharded Group (see ShardHooks); all
	// zero on the stand-alone selector.
	hooks ShardHooks

	ob selectorInstruments
}

// selectorInstruments are the selector's registered metrics (nil-safe
// no-ops when built without a registry).
type selectorInstruments struct {
	writeTxns  *obs.Counter
	readTxns   *obs.Counter
	remasters  *obs.Counter
	partsMoved *obs.Counter
	routed     []*obs.Counter
	routeDur   *obs.Histogram
	remastDur  *obs.Histogram
	// Last winning remaster decision's Equation 8 feature scores.
	featBalance, featDelay, featIntra, featInter *obs.Gauge
}

// instrument registers the selector's metrics.
func (s *Selector) instrument(reg *obs.Registry) {
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
	reg.Help("dynamast_selector_partitions", "Partitions tracked in the selector's sharded partition map.")
	reg.Help("dynamast_selector_shard_max_entries", "Largest partition-map shard (residency skew indicator).")
	s.ob = selectorInstruments{
		writeTxns:   reg.Counter("dynamast_route_total", obs.L("type", "write")),
		readTxns:    reg.Counter("dynamast_route_total", obs.L("type", "read")),
		remasters:   reg.Counter("dynamast_remaster_total"),
		partsMoved:  reg.Counter("dynamast_remaster_partitions_total"),
		routed:      make([]*obs.Counter, s.m),
		routeDur:    reg.Histogram("dynamast_route_seconds"),
		remastDur:   reg.Histogram("dynamast_remaster_seconds"),
		featBalance: reg.Gauge("dynamast_strategy_feature", obs.L("feature", "balance")),
		featDelay:   reg.Gauge("dynamast_strategy_feature", obs.L("feature", "delay")),
		featIntra:   reg.Gauge("dynamast_strategy_feature", obs.L("feature", "intra")),
		featInter:   reg.Gauge("dynamast_strategy_feature", obs.L("feature", "inter")),
	}
	for i := range s.ob.routed {
		s.ob.routed[i] = reg.Counter("dynamast_routed_total", obs.Site(i))
	}
	reg.Func("dynamast_selector_partitions", obs.KindGauge, func() float64 {
		total, _ := s.shardResidency()
		return float64(total)
	})
	reg.Func("dynamast_selector_shard_max_entries", obs.KindGauge, func() float64 {
		_, max := s.shardResidency()
		return float64(max)
	})
	if ps := s.placement; ps != nil {
		reg.Help("dynamast_placement_replicas_total", "Replica-set memberships across all tracked partitions.")
		reg.Help("dynamast_placement_adds_total", "Replica additions performed by the placement layer.")
		reg.Help("dynamast_placement_drops_total", "Replica drops performed by the placement layer.")
		reg.Func("dynamast_placement_replicas_total", obs.KindGauge, func() float64 {
			ps.mu.RLock()
			defer ps.mu.RUnlock()
			n := 0
			for _, set := range ps.sets {
				n += len(set)
			}
			return float64(n)
		})
		reg.Func("dynamast_placement_adds_total", obs.KindCounter, func() float64 {
			return float64(ps.adds.Load())
		})
		reg.Func("dynamast_placement_drops_total", obs.KindCounter, func() float64 {
			return float64(ps.drops.Load())
		})
	}
}

// shardResidency reports the total partition count and the largest shard.
func (s *Selector) shardResidency() (total, max int) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n := len(sh.m)
		sh.mu.RUnlock()
		total += n
		if n > max {
			max = n
		}
	}
	return total, max
}

// New constructs a selector.
func New(cfg Config) (*Selector, error) {
	if len(cfg.Sites) == 0 {
		return nil, fmt.Errorf("selector: no sites")
	}
	if cfg.Partitioner == nil {
		return nil, fmt.Errorf("selector: config requires a Partitioner")
	}
	if cfg.InitialMaster == nil {
		cfg.InitialMaster = func(uint64) int { return 0 }
	}
	s := &Selector{
		sites:       cfg.Sites,
		m:           len(cfg.Sites),
		partitioner: cfg.Partitioner,
		initial:     cfg.InitialMaster,
		stats:       NewStats(cfg.Stats),
		net:         cfg.Net,
		seed:        cfg.Seed,
		siteLoad:    make([]atomic.Uint64, len(cfg.Sites)),
		routed:      make([]atomic.Uint64, len(cfg.Sites)),
		downSites:   make([]atomic.Bool, len(cfg.Sites)),
		spans:       cfg.Spans,
		hooks:       cfg.Hooks,
		epochs:      &localEpochs{},
	}
	w := cfg.Weights
	s.weights.Store(&w)
	if cfg.MinReplicas > 0 {
		s.placement = newPlacementState(cfg.MinReplicas, cfg.MaxReplicas, s.m,
			DefaultReplicaSet(s.initial, s.m, cfg.MinReplicas))
	}
	for i := range s.shards {
		s.shards[i].m = make(map[uint64]*partInfo)
	}
	s.rngPool.New = func() any {
		// splitmix64 over a per-generator counter, xored with the seed.
		z := s.rngSplit.Add(1) * 0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return rand.New(rand.NewSource(s.seed ^ int64(z^(z>>31))))
	}
	s.instrument(cfg.Obs)
	return s, nil
}

// Weights returns the selector's strategy hyperparameters.
func (s *Selector) Weights() Weights { return *s.weights.Load() }

// SetWeights replaces the strategy hyperparameters (sensitivity sweeps
// swap them mid-run; the pointer swap is atomic against concurrent
// routing decisions).
func (s *Selector) SetWeights(w Weights) { s.weights.Store(&w) }

// Stats exposes the statistics tracker.
func (s *Selector) Stats() *Stats { return s.stats }

// part returns the partition info, creating it at the initial master. On
// first sight of a partition the initial master site is granted ownership,
// so transactions can create rows in partitions that did not exist at load
// time (e.g. freshly allocated key ranges).
func (s *Selector) part(id uint64) *partInfo {
	sh := &s.shards[shardOf(id)]
	sh.mu.RLock()
	p := sh.m[id]
	sh.mu.RUnlock()
	if p != nil {
		return p
	}
	sh.mu.Lock()
	if p = sh.m[id]; p != nil {
		sh.mu.Unlock()
		return p
	}
	p = &partInfo{}
	master := s.initial(id)
	if s.downSites[master].Load() {
		// The configured initial master is dead: place at the first
		// surviving site instead of granting into a failed one.
		for i := range s.downSites {
			if !s.downSites[i].Load() {
				master = i
				break
			}
		}
	}
	p.setMaster(master, 0)
	sh.m[id] = p
	sh.mu.Unlock()
	s.noteMaster([]uint64{id}, master)
	// Outside the shard lock: materialize ownership at the data site
	// (idempotent; a nil release vector means no catch-up wait; epoch 0 —
	// initial placement has no remaster chain to fence). A deposed leader
	// must not act on the sites: the promoted leader's own first sight of
	// the partition issues the grant instead. A sharded selector never
	// grants outside its range — the owning shard's first sight does.
	if !s.deposed.Load() && (s.hooks.Owns == nil || s.hooks.Owns(id)) {
		if _, err := s.sites[master].Grant([]uint64{id}, nil, master, 0); err != nil {
			// Grant only fails at shutdown; routing will surface the error.
			_ = err
		}
		s.publish([]uint64{id}, master, 0)
	}
	return p
}

// MarkDown flags a site failed: routing and destination scoring exclude it
// until MarkUp. Mastership reassignment is the failover coordinator's job
// (core.Cluster.Failover); MarkDown only stops new traffic toward the site.
func (s *Selector) MarkDown(site int) {
	if site >= 0 && site < s.m {
		s.downSites[site].Store(true)
	}
}

// MarkUp clears a site's failed flag (a recovered site rejoining).
func (s *Selector) MarkUp(site int) {
	if site >= 0 && site < s.m {
		s.downSites[site].Store(false)
	}
}

// SiteDown reports whether the selector considers the site failed.
func (s *Selector) SiteDown(site int) bool {
	return site >= 0 && site < s.m && s.downSites[site].Load()
}

// epochSource allocates the monotonic fencing epochs remaster chains are
// stamped with. localEpochs (the default) is an infallible process-local
// counter; leaseEpochs (lease.go) validates the caller's lease on every
// allocation so a deposed leader's chains die instead of out-fencing the
// new leader.
type epochSource interface {
	Alloc() (uint64, error)
	Current() uint64
	Bump(n uint64)
}

// localEpochs is the stand-alone epoch allocator: a plain atomic counter.
type localEpochs struct{ n atomic.Uint64 }

func (l *localEpochs) Alloc() (uint64, error) { return l.n.Add(1), nil }
func (l *localEpochs) Current() uint64        { return l.n.Load() }
func (l *localEpochs) Bump(n uint64) {
	for {
		cur := l.n.Load()
		if cur >= n || l.n.CompareAndSwap(cur, n) {
			return
		}
	}
}

// setEpochSource installs the selector's epoch allocator. Called only
// before the selector serves traffic (HA wiring at construction, or on a
// freshly built selector during promotion), so the plain store is safe.
func (s *Selector) setEpochSource(src epochSource) { s.epochs = src }

// AllocEpoch allocates a fresh remaster epoch (failover re-grants use it to
// fence out any in-flight chains that raced the failure). Under the HA
// tier the allocation is lease-validated and fails with ErrNoLeader once
// this selector has been deposed.
func (s *Selector) AllocEpoch() (uint64, error) { return s.epochs.Alloc() }

// depose marks this selector as no longer the leader: write routing fails
// fast with ErrNoLeader. Reads keep flowing (see RouteRead).
func (s *Selector) depose() { s.deposed.Store(true) }

// Deposed reports whether this selector has been deposed as the
// control-plane leader.
func (s *Selector) Deposed() bool { return s.deposed.Load() }

// SetDeltaFeed installs the mastership delta stream: every committed
// metadata flip (remaster chain completion, failover
// registration, first-sight placement) is published to f.
func (s *Selector) SetDeltaFeed(f func(parts []uint64, site int, epoch uint64)) {
	s.feed.Store(&f)
}

// publish hands a committed mastership flip to the delta feed, if one is
// wired.
func (s *Selector) publish(parts []uint64, site int, epoch uint64) {
	if f := s.feed.Load(); f != nil {
		(*f)(parts, site, epoch)
	}
}

// MasteredBy returns every partition currently assigned to site in the
// selector's map. Failover uses it as the authoritative set to re-grant
// (the selector's map is what routing consults, so reassigning exactly this
// set leaves no partition routed at a dead site).
func (s *Selector) MasteredBy(site int) []uint64 {
	var out []uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id, p := range sh.m {
			p.mu.RLock()
			if p.master == site {
				out = append(out, id)
			}
			p.mu.RUnlock()
		}
		sh.mu.RUnlock()
	}
	return out
}

// RegisterPartition seeds a partition's master location (load-time
// placement for the baselines; DynaMast experiments use the default).
func (s *Selector) RegisterPartition(id uint64, master int) {
	s.RegisterPartitionEpoch(id, master, 0)
}

// RegisterPartitionEpoch seeds a partition's master together with the
// remaster epoch that installed it; failover and recovery use it so
// checkpointed placement snapshots carry accurate epochs. It is metadata
// only: the caller has already settled ownership at the sites, so a
// partition this selector has not seen yet gets no first-sight grant (which
// would make its initial site a second master).
func (s *Selector) RegisterPartitionEpoch(id uint64, master int, epoch uint64) {
	s.install(id, master, epoch)
	s.publish([]uint64{id}, master, epoch)
}

// PlacementSnapshot captures the full partition map with the epoch each
// entry was installed under. Per-partition read locks serialize the capture
// against in-flight remaster chains (which hold the exclusive lock through
// their metadata flip), so every entry is a (master, epoch) pair some chain
// actually committed — never a torn mix.
func (s *Selector) PlacementSnapshot() (map[uint64]int, map[uint64]uint64) {
	placement := make(map[uint64]int)
	epochs := make(map[uint64]uint64)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		ids := make([]uint64, 0, len(sh.m))
		infos := make([]*partInfo, 0, len(sh.m))
		for id, p := range sh.m {
			ids = append(ids, id)
			infos = append(infos, p)
		}
		sh.mu.RUnlock()
		for j, p := range infos {
			p.mu.RLock()
			placement[ids[j]] = p.master
			epochs[ids[j]] = p.epoch
			p.mu.RUnlock()
		}
	}
	return placement, epochs
}

// CurrentEpoch returns the highest remaster epoch allocated so far.
func (s *Selector) CurrentEpoch() uint64 { return s.epochs.Current() }

// BumpEpoch raises the epoch counter to at least n. A recovered selector
// calls it with the highest epoch found in the checkpoint and log suffix so
// freshly allocated epochs keep out-fencing pre-crash ones.
func (s *Selector) BumpEpoch(n uint64) { s.epochs.Bump(n) }

// adoptPlacement installs a rebuilt placement map (partition -> master,
// with the epoch that installed each entry) without issuing any site-level
// grants: promotion already verified — and where needed repaired — the
// sites' own ownership state, so this is a pure metadata install.
func (s *Selector) adoptPlacement(owner map[uint64]int, epochs map[uint64]uint64) {
	for p, site := range owner {
		s.install(p, site, epochs[p])
	}
}

// install sets one partition's master and install epoch, creating its
// entry without a first-sight grant.
func (s *Selector) install(id uint64, master int, epoch uint64) {
	sh := &s.shards[shardOf(id)]
	sh.mu.Lock()
	in := sh.m[id]
	if in == nil {
		in = &partInfo{}
		sh.m[id] = in
	}
	sh.mu.Unlock()
	in.mu.Lock()
	in.setMaster(master, epoch)
	in.mu.Unlock()
	s.noteMaster([]uint64{id}, master)
}

// MasterOf returns the current master site of a partition.
func (s *Selector) MasterOf(id uint64) int {
	p := s.part(id)
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.master
}

// peekMaster returns the lock-free master hint of a partition WITHOUT
// creating it (part() would grant first-sight ownership — only the owning
// shard may do that). ok is false when the partition has never been seen.
func (s *Selector) peekMaster(id uint64) (int, bool) {
	sh := &s.shards[shardOf(id)]
	sh.mu.RLock()
	p := sh.m[id]
	sh.mu.RUnlock()
	if p == nil {
		return 0, false
	}
	return int(p.hint.Load()), true
}

// hintFor resolves a partition's lock-free master hint for scoring: own
// partitions through the local map, foreign partitions (sharded Group only)
// through the Group's read-only resolver.
func (s *Selector) hintFor(id uint64) int {
	if s.hooks.Owns != nil && !s.hooks.Owns(id) {
		if s.hooks.ForeignMaster != nil {
			return s.hooks.ForeignMaster(id)
		}
		return s.initial(id)
	}
	return int(s.part(id).hint.Load())
}

// accessWeight reads a partition's access weight from the Group-wide
// tracker when sharded, the local tracker otherwise.
func (s *Selector) accessWeight(id uint64) float64 {
	if s.hooks.AccessWeight != nil {
		return s.hooks.AccessWeight(id)
	}
	return s.stats.AccessWeight(id)
}

// coAccess reads a partition's raw co-access row from the owning shard's
// tracker when sharded, the local tracker otherwise.
func (s *Selector) coAccess(d1 uint64, intra bool, buf []CoPair) ([]CoPair, float64) {
	if s.hooks.CoAccess != nil {
		return s.hooks.CoAccess(d1, intra, buf)
	}
	return s.stats.CoAccess(d1, intra, buf)
}

// writeParts maps a write set to its sorted, deduplicated partition ids.
// Write sets are small (a handful of partitions), so the common path
// dedups by linear scan and sorts by insertion — no map, no sort.Slice
// closure — falling back to the general path for large sets.
func (s *Selector) writeParts(writeSet []storage.RowRef) []uint64 {
	if len(writeSet) > 32 {
		return s.writePartsLarge(writeSet)
	}
	parts := make([]uint64, 0, len(writeSet))
outer:
	for _, ref := range writeSet {
		id := s.partitioner(ref)
		for _, seen := range parts {
			if seen == id {
				continue outer
			}
		}
		parts = append(parts, id)
	}
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && parts[j] < parts[j-1]; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}
	return parts
}

func (s *Selector) writePartsLarge(writeSet []storage.RowRef) []uint64 {
	seen := make(map[uint64]struct{}, len(writeSet))
	parts := make([]uint64, 0, len(writeSet))
	for _, ref := range writeSet {
		id := s.partitioner(ref)
		if _, ok := seen[id]; !ok {
			seen[id] = struct{}{}
			parts = append(parts, id)
		}
	}
	slices.Sort(parts)
	return parts
}

// RouteWrite decides the execution site for a write transaction with the
// given write set, remastering the written partitions to one site if their
// masters are currently distributed (§V-B). cvv is the client's session
// vector, used by the refresh-delay feature.
func (s *Selector) RouteWrite(client int, writeSet []storage.RowRef, cvv vclock.Vector) (Route, error) {
	return s.routeWrite(client, writeSet, cvv, obs.SpanContext{})
}

// routeWrite is RouteWrite under a distributed trace: with a sampled sc (the
// route span's context), each remaster chain records one release span (at
// the source site) and one grant span (at the destination) as children of
// sc.Span.
func (s *Selector) routeWrite(client int, writeSet []storage.RowRef, cvv vclock.Vector, sc obs.SpanContext) (Route, error) {
	if s.deposed.Load() {
		return Route{}, ErrNoLeader
	}
	start := time.Now()
	parts := s.writeParts(writeSet)
	if len(parts) == 0 {
		s.writeTxns.Add(1)
		return Route{Site: 0}, nil
	}
	infos := make([]*partInfo, len(parts))
	for i, id := range parts {
		infos[i] = s.part(id)
	}

	// Fast path: shared-lock all partitions (in sorted id order) and check
	// for a single master.
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
		if err := s.ensureHostedAt(parts, master); err != nil {
			return Route{}, err
		}
		s.finishWrite(client, parts, master, start)
		return Route{Site: master}, nil
	}

	// Slow path: upgrade to exclusive locks (drop shared, reacquire
	// exclusive in order — the recheck below covers intervening changes).
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
		// A concurrent client with a common write set already remastered.
		if err := s.ensureHostedAt(parts, master); err != nil {
			return Route{}, err
		}
		s.finishWrite(client, parts, master, start)
		return Route{Site: master}, nil
	}

	dest, err := s.chooseDestination(parts, infos, cvv)
	if err != nil {
		return Route{}, err
	}
	remStart := time.Now()
	minVV, moved, err := s.remaster(parts, infos, dest, sc)
	wait := time.Since(remStart)
	if err != nil {
		return Route{}, err
	}
	s.remasterOps.Add(1)
	s.partsMoved.Add(uint64(moved))
	s.remastNanos.Add(int64(wait))
	s.ob.remasters.Inc()
	s.ob.partsMoved.Add(uint64(moved))
	s.ob.remastDur.ObserveDuration(wait)
	s.finishWrite(client, parts, dest, start)
	return Route{Site: dest, MinVV: minVV, Remastered: true, PartsMoved: moved, RemasterWait: wait}, nil
}

// finishWrite records statistics and routing counters for a decided write
// (called by the selector's own routing paths and by the front's cached
// routes).
func (s *Selector) finishWrite(client int, parts []uint64, site int, start time.Time) {
	now := time.Now()
	elapsed := now.Sub(start)
	s.writeTxns.Add(1)
	s.routed[site].Add(1)
	if s.hooks.Record != nil {
		// Sharded: the Group dispatches the sample to every shard whose
		// stripes need it (cross-shard co-access pairs land on both sides).
		s.hooks.Record(client, parts, now)
	} else {
		s.stats.RecordWrite(client, parts, now)
	}
	s.bumpLoad(parts, site)
	s.routeNanos.Add(int64(elapsed))
	s.ob.writeTxns.Inc()
	if s.ob.routed != nil {
		s.ob.routed[site].Inc()
	}
	s.ob.routeDur.Observe(elapsed.Seconds())
}

// addFloat CAS-adds d to the float64 bit-cast in a, returning the new value.
func addFloat(a *atomic.Uint64, d float64) float64 {
	for {
		old := a.Load()
		next := math.Float64frombits(old) + d
		if a.CompareAndSwap(old, math.Float64bits(next)) {
			return next
		}
	}
}

// loadFloat reads the float64 bit-cast in a.
func loadFloat(a *atomic.Uint64) float64 { return math.Float64frombits(a.Load()) }

// bumpLoad maintains the materialized per-site load: every access adds the
// partitions' unit weight to their (possibly new) master site, lock-free.
// The load decays with the stats tracker's halving implicitly through
// re-derivation: we approximate by adding 1 per partition access to the
// master site and halving all site loads when the running total exceeds
// the stats decay threshold (a single decayer runs at a time; racing adds
// skew a score at most transiently — the load is a scoring heuristic).
func (s *Selector) bumpLoad(parts []uint64, site int) {
	w := float64(len(parts))
	addFloat(&s.siteLoad[site], w)
	if addFloat(&s.loadTotal, w) > s.stats.decayThreshold {
		s.decayLoad()
	}
}

// decayLoad halves every site's load; only one goroutine decays at a time.
func (s *Selector) decayLoad() {
	if !s.decaying.CompareAndSwap(false, true) {
		return
	}
	defer s.decaying.Store(false)
	if loadFloat(&s.loadTotal) <= s.stats.decayThreshold {
		return
	}
	for i := range s.siteLoad {
		a := &s.siteLoad[i]
		for {
			old := a.Load()
			if a.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)/2)) {
				break
			}
		}
	}
	for {
		old := s.loadTotal.Load()
		if s.loadTotal.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)/2)) {
			break
		}
	}
}

// siteLoadSnapshot appends the current per-site load to buf.
func (s *Selector) siteLoadSnapshot(buf []float64) []float64 {
	for i := range s.siteLoad {
		buf = append(buf, loadFloat(&s.siteLoad[i]))
	}
	return buf
}

// localization accumulates one localization feature (Equation 6 or 7) for
// every candidate at once. SingleSited depends on the candidate only through
// "is the candidate the master of d2", so a pair (d1, d2) of probability p
// with m1 = master(d1) lands in exactly one of three places:
//
//	d2 in the write set:  +p for every candidate when m1 != master(d2)
//	                      (the set moves together), nothing otherwise;
//	m2 = hint(d2) != m1:  +p for candidate m2 only (it joins d1 to d2);
//	m2 = hint(d2) == m1:  -p for every candidate except m2 (it splits them).
type localization struct {
	common float64   // first case: candidate-independent
	gain   []float64 // gain[s]: second case with m2 == s
	lossAt []float64 // lossAt[s]: third case with m2 == s
}

func (l *localization) reset(m int) {
	l.common = 0
	l.gain = append(l.gain[:0], make([]float64, m)...)
	l.lossAt = append(l.lossAt[:0], make([]float64, m)...)
}

// score is the feature's value for candidate cand. The loss is summed over
// the other sites rather than taken as total-lossAt[cand]: candidates that no
// pair distinguishes then add identical terms in identical order and tie
// exactly, which the first-candidate-wins rule in chooseDestination needs.
func (l *localization) score(cand int) float64 {
	var loss float64
	for s, x := range l.lossAt {
		if s != cand {
			loss += x
		}
	}
	return l.common + l.gain[cand] - loss
}

// scoreScratch is the working memory of one chooseDestination call, pooled so
// a warm decision allocates nothing for its rows and per-site arrays.
type scoreScratch struct {
	pairs                  []CoPair
	before, after, weights []float64
	intra, inter           localization
}

var scorePool = sync.Pool{New: func() any { return new(scoreScratch) }}

// localize walks the co-access rows of the write set once — one CoAccess read
// per (d1, kind) — and fills sc.intra and sc.inter for all candidates.
func (s *Selector) localize(sc *scoreScratch, parts []uint64, infos []*partInfo) {
	sc.intra.reset(s.m)
	sc.inter.reset(s.m)
	for i := range parts {
		s.addRow(sc, true, i, parts, infos)
		s.addRow(sc, false, i, parts, infos)
	}
}

// addRow folds partition parts[i]'s intra or inter row into sc, with one hint
// lookup per row entry outside the write set. Masters inside the write set
// come from infos (the caller holds those locks); everything else is the
// lock-free hint: scoring must not acquire locks on partitions outside the
// write set (and, sharded, must not create foreign partitions — hintFor
// resolves those read-only via the Group).
func (s *Selector) addRow(sc *scoreScratch, intra bool, i int, parts []uint64, infos []*partInfo) {
	l := &sc.inter
	if intra {
		l = &sc.intra
	}
	m1 := infos[i].master
	var n float64
	sc.pairs, n = s.coAccess(parts[i], intra, sc.pairs[:0])
	for _, pr := range sc.pairs {
		p := pr.Count / n
		if j, ok := slices.BinarySearch(parts, pr.D2); ok {
			if infos[j].master != m1 {
				l.common += p
			}
			continue
		}
		m2 := s.hintFor(pr.D2)
		switch {
		case m2 == m1:
			l.lossAt[m2] += p
		case m2 >= 0 && m2 < s.m:
			l.gain[m2] += p
		}
	}
}

// chooseDestination scores every live site as a remastering destination
// with the Equation 8 model and returns the best; when every site is
// flagged down it returns a retryable error rather than targeting a dead
// site. Caller holds the partitions' exclusive locks; infos parallels
// parts, which is sorted.
func (s *Selector) chooseDestination(parts []uint64, infos []*partInfo, cvv vclock.Vector) (int, error) {
	sc := scorePool.Get().(*scoreScratch)
	defer scorePool.Put(sc)

	// Current load and the write set's per-partition weights.
	var before []float64
	if s.hooks.SiteLoads != nil {
		before = s.hooks.SiteLoads()
	} else {
		sc.before = s.siteLoadSnapshot(sc.before[:0])
		before = sc.before
	}
	sc.weights = sc.weights[:0]
	for _, id := range parts {
		w := s.accessWeight(id)
		if w == 0 {
			w = 1
		}
		sc.weights = append(sc.weights, w)
	}
	weights := sc.weights

	// Source sites' version vectors (for the refresh-delay feature): the
	// element-wise max of the client session vector and every releasing
	// site's vector is what the destination must catch up to.
	need := cvv.Clone()
	for i, in := range infos {
		if !slices.ContainsFunc(infos[:i], func(o *partInfo) bool { return o.master == in.master }) {
			need = need.MaxInto(s.sites[in.master].SVV())
		}
	}

	s.localize(sc, parts, infos)

	model := s.Weights()
	best, bestScore := -1, 0.0
	var bestFeat [4]float64 // balance, delay, intra, inter of the winner
	for cand := 0; cand < s.m; cand++ {
		if s.downSites[cand].Load() {
			continue // never remaster into a failed site
		}
		sc.after = append(sc.after[:0], before...)
		after := sc.after
		for i, in := range infos {
			if in.master != cand {
				after[in.master] -= weights[i]
				if after[in.master] < 0 {
					after[in.master] = 0
				}
				after[cand] += weights[i]
			}
		}
		balance := BalanceFactor(before, after)
		delay := RefreshDelay(need, s.sites[cand].SVV())
		intra, inter := sc.intra.score(cand), sc.inter.score(cand)

		score := model.Benefit(balance, delay, intra, inter)
		if best < 0 || score > bestScore {
			best, bestScore = cand, score
			bestFeat = [4]float64{balance, delay, intra, inter}
		}
	}
	if best < 0 {
		return -1, fmt.Errorf("selector: no live remaster destination: %w", sitemgr.ErrSiteDown)
	}
	s.ob.featBalance.Set(bestFeat[0])
	s.ob.featDelay.Set(bestFeat[1])
	s.ob.featIntra.Set(bestFeat[2])
	s.ob.featInter.Set(bestFeat[3])
	return best, nil
}

// remasterSendRetries bounds how many times a lost remaster RPC is retried
// before the chain is declared failed.
const remasterSendRetries = 3

// remasterCall performs one release/grant RPC against site peer: request
// message, operation, response message. Injected wire faults (drops,
// errors) are retried a bounded number of times — safe because epoch
// fencing makes the operation idempotent: a retry reaching a site that
// already executed the epoch gets the memoized result, never a second
// state change. Errors returned by the site itself (down, stale epoch) are
// definitive and surface immediately.
func (s *Selector) remasterCall(peer, reqSize int, op func() (vclock.Vector, error)) (vclock.Vector, error) {
	var lastErr error
	for attempt := 0; attempt <= remasterSendRetries; attempt++ {
		if attempt > 0 {
			transport.CountRetry()
		}
		if err := s.net.SendTo(transport.CatRemaster, transport.SelectorNode, peer, reqSize); err != nil {
			lastErr = err
			continue // request lost on the wire
		}
		vv, err := op()
		if err != nil {
			return nil, err
		}
		if err := s.net.SendTo(transport.CatRemaster, peer, transport.SelectorNode,
			transport.MsgOverhead+transport.SizeOfVector(vv)); err != nil {
			lastErr = err
			continue // response lost; the idempotent call re-runs
		}
		return vv, nil
	}
	return nil, fmt.Errorf("selector: remaster RPC to site %d failed after %d attempts: %w",
		peer, remasterSendRetries+1, lastErr)
}

// remaster transfers mastership of every partition in parts not already at
// dest, using parallel release+grant chains per source site (Algorithm 1),
// and returns the element-wise max of the grant vectors plus the number of
// partitions moved. Caller holds the partitions' exclusive locks.
//
// Each chain is fenced by a fresh epoch and is failure-hardened: lost RPCs
// retry against the idempotent release/grant; a grant that fails after its
// release succeeded rolls ownership back to the releaser rather than
// stranding the partitions masterless. The rollback runs under a FRESH
// epoch as a Release(dest)+Grant(src) chain: the grant leg can fail with
// the destination having executed the grant (request delivered, every
// response and retry lost — e.g. a one-way partition back to the
// selector), and re-granting the source under the chain's own epoch would
// then leave both sites' logs ending in a grant at the same epoch, which
// recovery tie-breaks arbitrarily. The fresh-epoch release fences out (and
// revokes) any such phantom ownership at the destination, and the grant
// back to the source strictly out-epochs whatever the destination logged,
// so recovery arbitration stays unambiguous. Selector metadata updates per
// chain, so a failed chain never undoes — or blocks — a succeeded one.
//
// Chains to different sources overlap on their own goroutines; a single
// chain — nearly every decision — runs inline.
func (s *Selector) remaster(parts []uint64, infos []*partInfo, dest int, sc obs.SpanContext) (vclock.Vector, int, error) {
	var chains []remasterChain // one per source site, in write-set order
	for i, in := range infos {
		if in.master == dest {
			continue
		}
		ci := slices.IndexFunc(chains, func(c remasterChain) bool { return c.src == in.master })
		if ci < 0 {
			ci = len(chains)
			chains = append(chains, remasterChain{src: in.master})
		}
		chains[ci].ids = append(chains[ci].ids, parts[i])
		chains[ci].idxs = append(chains[ci].idxs, i)
	}
	if len(chains) == 1 {
		// The usual decision moves partitions off one site: nothing to
		// overlap, so the chain runs on the caller's goroutine.
		return s.runChain(&chains[0], infos, dest, sc)
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
			vv, n, err := s.runChain(c, infos, dest, sc)
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

// remasterChain is one release+grant chain: the partitions of a write set
// that move off one source site.
type remasterChain struct {
	src  int
	ids  []uint64
	idxs []int // indexes into the write set's infos, for the metadata flip
}

// runChain executes one chain under a fresh epoch and, on success, flips the
// chain's selector metadata; it returns the grant vector and the number of
// partitions moved (see remaster for the failure handling).
func (s *Selector) runChain(c *remasterChain, infos []*partInfo, dest int, sc obs.SpanContext) (vclock.Vector, int, error) {
	epoch, err := s.epochs.Alloc()
	if err != nil {
		// Deposed mid-route: no epoch, no chain. The session retries
		// against the promoted leader.
		return nil, 0, err
	}
	// Partial replication: a master must be a replica-set member, so
	// materialize the destination's replica (bootstrap copy) BEFORE the
	// release/grant chain. An add that fails aborts the chain with nothing
	// to roll back; an add that succeeds with the chain later failing leaves
	// dest as a plain replica the controller may drop again.
	if err := s.ensureHostedAt(c.ids, dest); err != nil {
		return nil, 0, err
	}
	relStart := time.Now()
	relVV, err := s.remasterCall(c.src,
		transport.MsgOverhead+transport.SizeOfPartitions(c.ids),
		func() (vclock.Vector, error) { return s.sites[c.src].Release(c.ids, dest, epoch) })
	if err != nil {
		return nil, 0, err
	}
	if sc.Sampled() {
		s.spans.Record(obs.Span{
			Trace: sc.Trace, Parent: sc.Span, Name: "release", Site: c.src,
			Start: relStart, Dur: time.Since(relStart),
		})
	}
	grantStart := time.Now()
	grantVV, err := s.remasterCall(dest,
		transport.MsgOverhead+transport.SizeOfPartitions(c.ids)+transport.SizeOfVector(relVV),
		func() (vclock.Vector, error) { return s.sites[dest].Grant(c.ids, relVV, c.src, epoch) })
	if err == nil {
		if sc.Sampled() {
			s.spans.Record(obs.Span{
				Trace: sc.Trace, Parent: sc.Span, Name: "grant", Site: dest,
				Start: grantStart, Dur: time.Since(grantStart),
			})
		}
		obs.RecordEvent(obs.FlightRemaster, dest,
			"epoch %d: %d partition(s) remastered %d -> %d", epoch, len(c.ids), c.src, dest)
		// Chain complete: flip this chain's metadata now (the caller holds
		// the partitions' exclusive locks).
		for _, ix := range c.idxs {
			infos[ix].setMaster(dest, epoch)
		}
		s.noteMaster(c.ids, dest)
		s.publish(c.ids, dest, epoch)
		return grantVV, len(c.ids), nil
	}
	// The source released but the grant leg failed. A stale epoch means a
	// newer chain (a racing failover) already moved the partitions; rolling
	// back would clobber that newer ownership, so leave it be.
	if errors.Is(err, sitemgr.ErrStaleEpoch) {
		return nil, 0, err
	}
	// Otherwise the destination may still have executed the grant (only the
	// responses were lost), so fence its possible phantom ownership with a
	// fresh-epoch release before granting the partitions back to the
	// releaser. An unconfirmed release is fine: either it executed
	// (destination fenced and revoked) or the destination never owned — in
	// both cases the higher-epoch grant below wins recovery arbitration and
	// routing still points at the source.
	rbEpoch, rbAllocErr := s.epochs.Alloc()
	if rbAllocErr != nil {
		// Deposed before the rollback could run: the release stands without
		// a grant, which the promoted leader's dangling-release repair
		// re-grants to the source.
		return nil, 0, err
	}
	if vv, rbErr := s.remasterCall(dest,
		transport.MsgOverhead+transport.SizeOfPartitions(c.ids),
		func() (vclock.Vector, error) { return s.sites[dest].Release(c.ids, c.src, rbEpoch) }); rbErr == nil {
		relVV = relVV.MaxInto(vv)
	}
	if _, rbErr := s.remasterCall(c.src,
		transport.MsgOverhead+transport.SizeOfPartitions(c.ids)+transport.SizeOfVector(relVV),
		func() (vclock.Vector, error) { return s.sites[c.src].Grant(c.ids, relVV, c.src, rbEpoch) }); rbErr != nil {
		err = fmt.Errorf("%w (rollback to site %d also failed: %v)", err, c.src, rbErr)
	}
	return nil, 0, err
}

// RouteRead picks an execution site for a read-only transaction: a random
// site whose version vector already satisfies the client's session
// freshness, spreading load while minimizing blocking (§IV-B). If no site
// satisfies it, the least-lagged site is returned (the transaction blocks
// there the shortest time).
func (s *Selector) RouteRead(client int, cvv vclock.Vector) Route {
	s.readTxns.Add(1)
	s.ob.readTxns.Inc()
	fresh := make([]int, 0, s.m)
	bestLag, bestSite := uint64(1)<<63, 0
	for i, site := range s.sites {
		if s.downSites[i].Load() {
			continue // reads never route to a failed site
		}
		svv := site.SVV()
		if svv.DominatesEq(cvv) {
			fresh = append(fresh, i)
			continue
		}
		if lag := svv.LagBehind(cvv); lag < bestLag {
			bestLag, bestSite = lag, i
		}
	}
	if len(fresh) == 0 {
		return Route{Site: bestSite}
	}
	rng := s.rngPool.Get().(*rand.Rand)
	pick := fresh[rng.Intn(len(fresh))]
	s.rngPool.Put(rng)
	return Route{Site: pick}
}

// Metrics is a snapshot of the selector's counters.
type Metrics struct {
	WriteTxns     uint64
	ReadTxns      uint64
	RemasterTxns  uint64 // write txns that required remastering
	PartsMoved    uint64
	RoutedPerSite []uint64
	AvgRouteTime  time.Duration // mean routing decision latency
	AvgRemaster   time.Duration // mean release/grant wait of remastering decisions
}

// Metrics returns a snapshot of routing counters.
func (s *Selector) Metrics() Metrics {
	m := Metrics{
		WriteTxns:     s.writeTxns.Load(),
		ReadTxns:      s.readTxns.Load(),
		RemasterTxns:  s.remasterOps.Load(),
		PartsMoved:    s.partsMoved.Load(),
		RoutedPerSite: make([]uint64, s.m),
	}
	for i := range s.routed {
		m.RoutedPerSite[i] = s.routed[i].Load()
	}
	if m.WriteTxns > 0 {
		m.AvgRouteTime = time.Duration(s.routeNanos.Load() / int64(m.WriteTxns))
	}
	if m.RemasterTxns > 0 {
		m.AvgRemaster = time.Duration(s.remastNanos.Load() / int64(m.RemasterTxns))
	}
	return m
}
