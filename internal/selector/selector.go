package selector

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dynamast/internal/obs"
	"dynamast/internal/pindex"
	"dynamast/internal/sitemgr"
	"dynamast/internal/storage"
	"dynamast/internal/transport"
	"dynamast/internal/vclock"
)

// DataSite is the selector's view of a data site: the mastership-transfer
// RPCs, the epoch fence a promoted selector installs, and the version vector
// used by the refresh-delay feature and read routing. *sitemgr.Site
// implements it. The epoch parameter fences and memoizes the transfer (see
// sitemgr): retried calls with the same epoch are idempotent, stale epochs
// are rejected; epoch 0 disables fencing (initial placement).
type DataSite interface {
	ID() int
	SVV() vclock.Vector
	Release(parts []uint64, to int, epoch uint64) (vclock.Vector, error)
	Grant(parts []uint64, relVV vclock.Vector, from int, epoch uint64) (vclock.Vector, error)
	// FenceEpochsBelowRange rejects later transfers below floor over the
	// partitions of router shard shard-of-shards and returns the floor in
	// effect (sitemgr.Site.FenceEpochsBelowRange).
	FenceEpochsBelowRange(floor uint64, shard, shards int) uint64
}

// Config describes one router shard's selector.
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
	// Seed drives read-routing randomization (the group reads shard 0's).
	Seed int64
	// MinReplicas, when positive, enables partial replication: each
	// partition carries an explicit replica set of at least MinReplicas and
	// at most MaxReplicas sites (MaxReplicas <= 0 means no upper bound
	// beyond the site count). Zero preserves full replication.
	MinReplicas int
	// MaxReplicas bounds replica-set growth under partial replication.
	MaxReplicas int
	// Spans receives the release/grant spans of sampled traced routing
	// decisions (Front.Write); nil disables span recording.
	Spans *obs.SpanRecorder
	// Shard and Shards place the selector in its router group: it owns the
	// partitions RouterShardOf assigns to Shard of Shards, creates and
	// grants only those, and under HA fences and rebuilds only that range.
	// They live in the Config so an HA promotion's rebuilt selector keeps
	// its shard identity. Shards <= 1 owns every partition.
	Shard, Shards int
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

// Selector is one router shard's state: its partition map, access
// statistics, epoch allocator, placement metadata and materialized site
// load. It runs the remaster chains its Group decides (§V-B); the Group
// routes.
type Selector struct {
	sites       []DataSite
	m           int
	partitioner sitemgr.Partitioner
	initial     func(part uint64) int
	weights     atomic.Pointer[Weights]
	stats       *Stats
	net         *transport.Network
	seed        int64

	// shard of nshards is the partition range this selector owns.
	shard, nshards int

	// parts is the partition map. Lookups take no lock; partMu serialises
	// the writers that add entries.
	parts  pindex.Map[partInfo]
	partMu sync.Mutex

	// Materialized per-site load (sum of mastered partitions' access
	// weights), used by the balance feature. Float64 bits in atomics;
	// bumpLoad CAS-adds and decays when the running total crosses the
	// stats decay threshold.
	siteLoad  []atomic.Uint64
	loadTotal atomic.Uint64
	decaying  atomic.Bool

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
		shard:       cfg.Shard,
		nshards:     cfg.Shards,
		siteLoad:    make([]atomic.Uint64, len(cfg.Sites)),
		downSites:   make([]atomic.Bool, len(cfg.Sites)),
		spans:       cfg.Spans,
		epochs:      &localEpochs{},
	}
	w := cfg.Weights
	s.weights.Store(&w)
	if cfg.MinReplicas > 0 {
		s.placement = newPlacementState(cfg.MinReplicas, cfg.MaxReplicas, s.m,
			DefaultReplicaSet(s.initial, s.m, cfg.MinReplicas))
	}
	return s, nil
}

// owns reports whether partition id lies in this selector's shard range.
func (s *Selector) owns(id uint64) bool { return RouterShardOf(id, s.nshards) == s.shard }

// Weights returns the selector's strategy hyperparameters.
func (s *Selector) Weights() Weights { return *s.weights.Load() }

// part returns the partition info, creating it at the initial master. On
// first sight of a partition the initial master site is granted ownership,
// so transactions can create rows in partitions that did not exist at load
// time (e.g. freshly allocated key ranges).
func (s *Selector) part(id uint64) *partInfo {
	if p := s.parts.Get(id); p != nil {
		return p
	}
	s.partMu.Lock()
	if p := s.parts.Get(id); p != nil {
		s.partMu.Unlock()
		return p
	}
	p := &partInfo{}
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
	s.parts.Put(id, p)
	s.partMu.Unlock()
	s.noteMaster([]uint64{id}, master)
	// Outside the map lock: materialize ownership at the data site
	// (idempotent; a nil release vector means no catch-up wait; epoch 0 —
	// initial placement has no remaster chain to fence). A deposed leader
	// must not act on the sites: the promoted leader's own first sight of
	// the partition issues the grant instead. A selector never grants
	// outside its shard range — the owning shard's first sight does.
	if !s.deposed.Load() && s.owns(id) {
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
// selector's map, in ascending order. Failover uses it as the authoritative
// set to re-grant (the selector's map is what routing consults, so
// reassigning exactly this set leaves no partition routed at a dead site),
// and the order makes its re-grants the same on every run.
func (s *Selector) MasteredBy(site int) []uint64 {
	var out []uint64
	s.parts.Range(func(id uint64, p *partInfo) {
		p.mu.RLock()
		if p.master == site {
			out = append(out, id)
		}
		p.mu.RUnlock()
	})
	slices.Sort(out)
	return out
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
	placement := make(map[uint64]int, s.parts.Len())
	epochs := make(map[uint64]uint64, s.parts.Len())
	s.parts.Range(func(id uint64, p *partInfo) {
		p.mu.RLock()
		placement[id] = p.master
		epochs[id] = p.epoch
		p.mu.RUnlock()
	})
	return placement, epochs
}

// CurrentEpoch returns the highest remaster epoch allocated so far.
func (s *Selector) CurrentEpoch() uint64 { return s.epochs.Current() }

// BumpEpoch raises the epoch counter to at least n. A recovered selector
// calls it with the highest epoch found in the checkpoint and log suffix so
// freshly allocated epochs keep out-fencing pre-crash ones.
func (s *Selector) BumpEpoch(n uint64) { s.epochs.Bump(n) }

// adoptPlacement installs the entries of a rebuilt placement map (partition
// -> master, with the epoch that installed each entry) that fall in this
// selector's shard range, and returns how many it installed. It issues no
// site-level grants: promotion already verified — and where needed repaired
// — the sites' own ownership state, so this is a pure metadata install.
func (s *Selector) adoptPlacement(owner map[uint64]int, epochs map[uint64]uint64) int {
	n := 0
	for p, site := range owner {
		if s.owns(p) {
			s.install(p, site, epochs[p])
			n++
		}
	}
	return n
}

// install sets one partition's master and install epoch, creating its
// entry without a first-sight grant.
func (s *Selector) install(id uint64, master int, epoch uint64) {
	s.partMu.Lock()
	in := s.parts.Get(id)
	if in == nil {
		in = &partInfo{}
		s.parts.Put(id, in)
	}
	s.partMu.Unlock()
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
	p := s.parts.Get(id)
	if p == nil {
		return 0, false
	}
	return int(p.hint.Load()), true
}

// writeParts maps a write set to its sorted, deduplicated partition ids.
// Write sets are small (a handful of partitions), so the common path
// dedups by linear scan and sorts by insertion — no map, no sort.Slice
// closure — falling back to the general path for large sets.
func writeParts(partitioner sitemgr.Partitioner, writeSet []storage.RowRef) []uint64 {
	if len(writeSet) > 32 {
		return writePartsLarge(partitioner, writeSet)
	}
	parts := make([]uint64, 0, len(writeSet))
outer:
	for _, ref := range writeSet {
		id := partitioner(ref)
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

func writePartsLarge(partitioner sitemgr.Partitioner, writeSet []storage.RowRef) []uint64 {
	seen := make(map[uint64]struct{}, len(writeSet))
	parts := make([]uint64, 0, len(writeSet))
	for _, ref := range writeSet {
		id := partitioner(ref)
		if _, ok := seen[id]; !ok {
			seen[id] = struct{}{}
			parts = append(parts, id)
		}
	}
	slices.Sort(parts)
	return parts
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

// bumpLoad maintains the materialized per-site load: every access adds w,
// the number of partitions the write touched in this shard, to their
// (possibly new) master site, lock-free. The load approximates the stats
// tracker's decay by halving all site loads when the running total exceeds
// the stats decay threshold (a single decayer runs at a time; racing adds
// skew a score at most transiently — the load is a scoring heuristic).
func (s *Selector) bumpLoad(w float64, site int) {
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

// localization accumulates one localization feature (Equation 6 or 7) for
// every candidate at once. The single_sited term depends on the candidate
// only through "is the candidate the master of d2", so a pair (d1, d2) of
// probability p with m1 = master(d1) lands in exactly one of three places:
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
// exactly, which the first-candidate-wins rule in decide needs.
func (l *localization) score(cand int) float64 {
	var loss float64
	for s, x := range l.lossAt {
		if s != cand {
			loss += x
		}
	}
	return l.common + l.gain[cand] - loss
}

// view is the read-only group state destination scoring gathers: master
// hints, access weights, co-access rows and per-site load, each read from
// the shard that owns it. Group implements it; none of its methods takes a
// partition lock, sends an RPC or creates partition state.
type view interface {
	// hint is a partition's lock-free master hint (its initial placement
	// if no shard has seen it).
	hint(p uint64) int
	// accessWeight is a partition's recent write access weight.
	accessWeight(p uint64) float64
	// coAccess appends partition d1's raw intra- or inter-transaction
	// co-access row to buf; same contract as Stats.CoAccess.
	coAccess(d1 uint64, intra bool, buf []CoPair) ([]CoPair, float64)
	// siteLoads appends the materialized per-site load to buf.
	siteLoads(buf []float64) []float64
}

// scoreScratch is the working memory of one decide call, pooled so a warm
// decision allocates nothing for its rows and per-site arrays.
type scoreScratch struct {
	pairs                  []CoPair
	before, after, weights []float64
	intra, inter           localization
}

var scorePool = sync.Pool{New: func() any { return new(scoreScratch) }}

// localize walks the co-access rows of the write set once — one coAccess read
// per (d1, kind) — and fills sc.intra and sc.inter for all m candidates.
func (sc *scoreScratch) localize(v view, parts []uint64, masters []int, m int) {
	sc.intra.reset(m)
	sc.inter.reset(m)
	for i := range parts {
		sc.addRow(v, true, i, parts, masters)
		sc.addRow(v, false, i, parts, masters)
	}
}

// addRow folds partition parts[i]'s intra or inter row into sc, with one hint
// lookup per row entry outside the write set. Masters inside the write set
// come from masters (read under the caller's locks); everything else is the
// view's lock-free hint.
func (sc *scoreScratch) addRow(v view, intra bool, i int, parts []uint64, masters []int) {
	l := &sc.inter
	if intra {
		l = &sc.intra
	}
	m1 := masters[i]
	var n float64
	sc.pairs, n = v.coAccess(parts[i], intra, sc.pairs[:0])
	for _, pr := range sc.pairs {
		p := pr.Count / n
		if j, ok := slices.BinarySearch(parts, pr.D2); ok {
			if masters[j] != m1 {
				l.common += p
			}
			continue
		}
		m2 := v.hint(pr.D2)
		switch {
		case m2 == m1:
			l.lossAt[m2] += p
		case m2 >= 0 && m2 < len(l.gain):
			l.gain[m2] += p
		}
	}
}

// decide scores every live site as the remastering destination of parts
// with the Equation 8 model and returns the best with its [balance, delay,
// intra, inter] features. It gathers through v, then runs a pure candidate
// loop over this shard's sites, down flags and weights (uniform across a
// group); masters parallels parts, which is sorted. When every site is
// flagged down it returns a retryable error rather than a dead site.
func (s *Selector) decide(v view, parts []uint64, masters []int, cvv vclock.Vector) (int, [4]float64, error) {
	sc := scorePool.Get().(*scoreScratch)
	defer scorePool.Put(sc)

	// Gather: current load, the write set's weights, the version vector a
	// destination must catch up to (the client session vector and every
	// releasing site's vector), and the localization features.
	sc.before = v.siteLoads(sc.before[:0])
	before := sc.before
	sc.weights = sc.weights[:0]
	for _, id := range parts {
		w := v.accessWeight(id)
		if w == 0 {
			w = 1
		}
		sc.weights = append(sc.weights, w)
	}
	weights := sc.weights
	need := cvv.Clone()
	for i, m := range masters {
		if !slices.Contains(masters[:i], m) {
			need = need.MaxInto(s.sites[m].SVV())
		}
	}
	sc.localize(v, parts, masters, s.m)

	model := s.Weights()
	best, bestScore := -1, 0.0
	var feat [4]float64 // balance, delay, intra, inter of the winner
	for cand := 0; cand < s.m; cand++ {
		if s.downSites[cand].Load() {
			continue // never remaster into a failed site
		}
		sc.after = append(sc.after[:0], before...)
		after := sc.after
		for i, m := range masters {
			if m != cand {
				after[m] -= weights[i]
				if after[m] < 0 {
					after[m] = 0
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
			feat = [4]float64{balance, delay, intra, inter}
		}
	}
	if best < 0 {
		return -1, feat, fmt.Errorf("selector: no live remaster destination: %w", sitemgr.ErrSiteDown)
	}
	return best, feat, nil
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

// remasterChain is one release+grant chain (Algorithm 1): the partitions of
// a write set that move off one source site within one router shard.
type remasterChain struct {
	sel   *Selector // the owning shard's leader, which runs the chain
	src   int
	ids   []uint64
	infos []*partInfo // the partitions' entries, for the metadata flip
}

// runChain executes one chain under a fresh epoch from this selector's
// allocator and, on success, flips the chain's metadata (the caller holds
// the partitions' exclusive locks); it returns the grant vector and the
// number of partitions moved.
//
// The chain is failure-hardened: lost RPCs retry against the idempotent
// release/grant; a grant that fails after its release succeeded rolls
// ownership back to the releaser rather than stranding the partitions
// masterless. The rollback runs under a FRESH epoch as a
// Release(dest)+Grant(src) chain: the grant leg can fail with the
// destination having executed the grant (request delivered, every response
// and retry lost — e.g. a one-way partition back to the selector), and
// re-granting the source under the chain's own epoch would then leave both
// sites' logs ending in a grant at the same epoch, which recovery
// tie-breaks arbitrarily. The fresh-epoch release fences out (and revokes)
// any such phantom ownership at the destination, and the grant back to the
// source strictly out-epochs whatever the destination logged, so recovery
// arbitration stays unambiguous. Metadata updates per chain, so a failed
// chain never undoes — or blocks — a succeeded one.
func (s *Selector) runChain(c *remasterChain, dest int, sc obs.SpanContext) (vclock.Vector, int, error) {
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
		for _, in := range c.infos {
			in.setMaster(dest, epoch)
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
