// Package core assembles DynaMast: a site selector, m replicating data
// sites, and per-site durable update logs, exposed through client sessions
// that guarantee strong-session snapshot isolation. It is the paper's
// primary contribution (§V) built on the substrates in internal/.
package core

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dynamast/internal/checkpoint"
	"dynamast/internal/codec"
	"dynamast/internal/obs"
	"dynamast/internal/selector"
	"dynamast/internal/sitemgr"
	"dynamast/internal/storage"
	"dynamast/internal/systems"
	"dynamast/internal/transport"
	"dynamast/internal/wal"
)

// Config describes a DynaMast cluster.
type Config struct {
	// Sites is the number of data sites (m).
	Sites int
	// Partitioner maps rows to partition groups; required.
	Partitioner sitemgr.Partitioner
	// Weights are the remastering-strategy hyperparameters; zero value
	// means selector.YCSBWeights.
	Weights selector.Weights
	// Network configures the simulated wire; zero value means free
	// (transport.Instant) — benchmarks use transport.DefaultConfig.
	Network transport.Config
	// InitialMaster seeds partition placement; nil scatters partitions
	// pseudo-randomly across the sites (the paper gives DynaMast no
	// curated initial placement — its strategies must organize mastership
	// themselves).
	InitialMaster func(part uint64) int
	// MaxVersions caps record version chains (0 = 4, the paper default; at
	// most storage.MaxVersionCap).
	MaxVersions int
	// Stats tunes the selector's statistics tracking.
	Stats selector.StatsConfig
	// WALDir, when set, makes the update logs file-backed (durability and
	// crash recovery); empty keeps them in memory. Checkpoints live under
	// the same directory.
	WALDir string
	// CheckpointEvery, when positive (and WALDir is set), runs a background
	// checkpointer at this interval. Each checkpoint snapshots every site's
	// store, records WAL replay offsets in a manifest, and truncates the
	// covered log prefix, bounding both restart time and disk usage.
	CheckpointEvery time.Duration
	// CheckpointEveryRecords additionally triggers a checkpoint whenever
	// this many new WAL records have accumulated since the last one
	// (0 disables the record-count trigger).
	CheckpointEveryRecords uint64
	// ExecSlots is each site's execution parallelism (0 = default).
	ExecSlots int
	// EpochInterval is the epoch group-commit seal interval. Zero means the
	// default (sitemgr.DefaultEpochInterval); negative disables epochs and
	// restores per-transaction commit records. Use WithEpochInterval.
	EpochInterval time.Duration
	// Costs prices transactional work (zero = free; benchmarks use
	// sitemgr.DefaultCostModel).
	Costs sitemgr.CostModel
	// SelectorReplicas is the number of standby selectors behind each
	// router shard's leader (Appendix I's distributed site selector). A
	// standby holds no state: under SelectorLease it contends for the lease
	// and, on promotion, rebuilds the map from the last checkpoint and the
	// WAL. With any standby (or several shards) sessions route reads and
	// single-sited writes off a gossiped placement cache, and only
	// remastering decisions reach a leader. 0 keeps the stand-alone
	// selector.
	SelectorReplicas int
	// SelectorShards, when above 1, splits the selector control plane into
	// that many independent router shards, each owning a contiguous range
	// of the partition-id hash space (selector.RouterShardOf) with its own
	// routing loop, statistics stripes, placement controller, and — under
	// SelectorLease — its own lease and remaster-epoch allocator. Sessions
	// route reads (and optimistically route writes) off a gossiped
	// placement cache without touching any router. 0 or 1 keeps the single
	// router. Use WithSelectorShards.
	SelectorShards int
	// SelectorLease, when positive, puts the selector tier under
	// lease-based leadership (high availability): the leader renews a lease
	// of this TTL, and on expiry a standby promotes — fencing the deposed
	// leader's in-flight remaster chains with a fresh epoch and rebuilding
	// the map from the last checkpoint's placement and the WAL suffix past
	// it.
	// Requires at least one replica; when SelectorReplicas is 0 it
	// defaults to 2. Zero disables HA (the selector is a single point of
	// failure, as in the paper's prototype).
	SelectorLease time.Duration
	// MinReplicas, when positive, enables adaptive partial replication:
	// every partition is hosted by an explicit replica set of at least
	// MinReplicas sites instead of everywhere. Use WithReplicationFactor.
	MinReplicas int
	// MaxReplicas bounds replica-set growth under partial replication
	// (0 = the site count).
	MaxReplicas int
	// PlacementPolicy decides each partition's desired replica set under
	// partial replication (nil = selector.AdaptivePolicy). Setting a policy
	// other than StaticFullReplication without MinReplicas implies a
	// replication factor of [1, Sites]. Use WithPlacementPolicy.
	PlacementPolicy selector.PlacementPolicy
	// PlacementInterval is the placement controller's tick interval
	// (0 = selector.DefaultPlacementInterval).
	PlacementInterval time.Duration
	// Seed drives read-routing randomization.
	Seed int64
	// Faults, when set, installs a fault injector on the simulated wire
	// (chaos testing; see transport.Injector). Fault-free operation is one
	// atomic pointer load per message.
	Faults *transport.Injector
	// FailureDetection enables the heartbeat-based site failure detector;
	// the zero value disables it (KillSite/Failover still work manually).
	FailureDetection FailureDetectionConfig
	// Obs receives the cluster's metrics; nil creates a private registry
	// (reachable through Cluster.Obs).
	Obs *obs.Registry
	// TraceRing caps the in-memory ring of retained sampled span traces
	// (0 = obs.DefaultTraceRing).
	TraceRing int
	// TraceSampleEvery head-samples one in every N locally originated update
	// transactions for distributed span tracing (0 disables sampling; RPC
	// clients that send their own trace context are always honored). The
	// stage histograms cover every update regardless.
	TraceSampleEvery int
	// SLOTargets are watched latency quantile thresholds; breaches count in
	// dynamast_slo_breaches_total and land in the flight recorder.
	SLOTargets []obs.SLOTarget
	// SLOInterval is the SLO evaluation window (0 = 1s; only meaningful with
	// SLOTargets).
	SLOInterval time.Duration
	// FlightDir, when set, is where flight-recorder snapshots are written on
	// failover, recovery, and SLO breaches.
	FlightDir string

	// optErr carries a construction error recorded by an Option (e.g. a
	// malformed WithFaults spec) so NewWithOptions can surface it.
	optErr error
}

// Cluster is a running DynaMast deployment.
type Cluster struct {
	cfg    Config
	net    *transport.Network
	broker *wal.Broker
	sites  []*sitemgr.Site
	repl   *selector.Replicated // shard 0's selector tier (compat accessor)
	repls  []*selector.Replicated
	group  *selector.Group

	sessions atomic.Uint64

	// Partial replication (see placement.go).
	placeMu   [64]sync.Mutex // replica add/drop stripes (see placeLock)
	placeCtls []*selector.PlacementController

	// Failure handling (see failure.go).
	failoverMu  sync.Mutex
	failedOver  map[int]bool
	failovers   atomic.Uint64
	obFailovers *obs.Counter
	hbStop      chan struct{}
	hbWG        sync.WaitGroup
	closeOnce   sync.Once
	closing     atomic.Bool
	// afterFailoverGrant is a test hook between a failover grant and its registration.
	afterFailoverGrant func()

	// Checkpointing (see checkpoint.go).
	ckptMu       sync.Mutex                          // serializes checkpoint runs
	lastManifest atomic.Pointer[checkpoint.Manifest] // newest committed (or recovered) checkpoint; stored under ckptMu
	ckptStop     chan struct{}
	ckptWG       sync.WaitGroup
	lastRecovery RecoveryStats
	obCkpts      *obs.Counter
	obCkptFails  *obs.Counter
	obCkptBytes  *obs.Counter
	ckptDur      *obs.Histogram
	obReplayed   *obs.Counter
	recoverDur   *obs.Histogram

	obs     *obs.Registry
	spans   *obs.SpanRecorder
	sampler *obs.Sampler
	slo     *obs.SLOEngine
	// Session-level instruments (see instrument).
	updateDur *obs.Histogram
	readDur   *obs.Histogram
	stageDur  [obs.NumStages]*obs.Histogram
}

// NewCluster builds and starts a DynaMast cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Sites <= 0 {
		return nil, fmt.Errorf("core: Sites must be positive")
	}
	if cfg.Partitioner == nil {
		return nil, fmt.Errorf("core: config requires a Partitioner")
	}
	if cfg.MaxVersions < 0 || cfg.MaxVersions > storage.MaxVersionCap {
		return nil, fmt.Errorf("core: MaxVersions %d outside [0,%d]", cfg.MaxVersions, storage.MaxVersionCap)
	}
	if cfg.Weights == (selector.Weights{}) {
		cfg.Weights = selector.YCSBWeights()
	}
	c := &Cluster{
		cfg:        cfg,
		net:        transport.NewNetwork(cfg.Network),
		failedOver: make(map[int]bool),
		hbStop:     make(chan struct{}),
		ckptStop:   make(chan struct{}),
	}
	c.obs = cfg.Obs
	if c.obs == nil {
		c.obs = obs.NewRegistry()
	}
	c.spans = obs.NewSpanRecorder(cfg.TraceRing)
	c.sampler = obs.NewSampler(cfg.TraceSampleEvery)
	if cfg.FlightDir != "" {
		if err := obs.SetFlightDir(cfg.FlightDir); err != nil {
			return nil, fmt.Errorf("core: flight dir: %w", err)
		}
	}
	c.net.Instrument(c.obs)
	codec.Instrument(c.obs)
	if cfg.Faults != nil {
		c.net.SetInjector(cfg.Faults)
		cfg.Faults.Instrument(c.obs)
	}

	var err error
	if cfg.WALDir != "" {
		c.broker, err = wal.OpenBroker(cfg.WALDir, cfg.Sites)
		if err != nil {
			return nil, err
		}
	} else {
		c.broker = wal.NewBroker(cfg.Sites)
	}
	c.broker.Instrument(c.obs)

	// Epoch group commit defaults on; WithEpochInterval(0) opts out by
	// storing a negative sentinel.
	epochIv := cfg.EpochInterval
	switch {
	case epochIv < 0:
		epochIv = 0 // explicit opt-out: per-transaction commit records
	case epochIv == 0:
		epochIv = sitemgr.DefaultEpochInterval
	}

	initial := cfg.InitialMaster
	if initial == nil {
		m := uint64(cfg.Sites)
		initial = func(part uint64) int {
			// Fibonacci hashing scatters partitions uncorrelated with the
			// workloads' range structure.
			return int((part * 0x9E3779B97F4A7C15 >> 17) % m)
		}
	}

	// Partial-replication resolution: an explicit replication factor turns
	// it on; a non-static placement policy alone implies the loosest bounds.
	minRF, maxRF := cfg.MinReplicas, cfg.MaxReplicas
	if cfg.PlacementPolicy != nil && minRF == 0 {
		if _, static := cfg.PlacementPolicy.(selector.StaticFullReplication); !static {
			minRF, maxRF = 1, cfg.Sites
		}
	}
	if minRF > cfg.Sites {
		minRF = cfg.Sites
	}
	partial := minRF > 0
	if partial && cfg.SelectorLease > 0 {
		c.broker.Close()
		return nil, fmt.Errorf("core: partial replication is not supported with selector HA " +
			"(a promoted standby would lose the replica-set metadata); disable one of " +
			"WithReplicationFactor/WithPlacementPolicy and SelectorLease")
	}

	c.sites = make([]*sitemgr.Site, cfg.Sites)
	dsites := make([]selector.DataSite, cfg.Sites)
	for i := 0; i < cfg.Sites; i++ {
		siteCfg := sitemgr.Config{
			SiteID:        i,
			Sites:         cfg.Sites,
			Net:           c.net,
			Broker:        c.broker,
			MaxVersions:   cfg.MaxVersions,
			Partitioner:   cfg.Partitioner,
			ExecSlots:     cfg.ExecSlots,
			EpochInterval: epochIv,
			Costs:         cfg.Costs,
			Obs:           c.obs,
			Spans:         c.spans,
		}
		if partial {
			siteCfg.PartialReplication = true
			// Seed membership mirrors selector.DefaultReplicaSet: partition p
			// starts at sites initial(p) .. initial(p)+minRF-1 (mod m).
			site, m, rf := i, cfg.Sites, minRF
			siteCfg.DefaultHosted = func(part uint64) bool {
				d := site - initial(part)%m
				if d < 0 {
					d += m
				}
				return d < rf
			}
		}
		s, err := sitemgr.New(siteCfg)
		if err != nil {
			c.broker.Close()
			return nil, err
		}
		c.sites[i], dsites[i] = s, s
	}

	shards := cfg.SelectorShards
	if shards <= 0 {
		shards = 1
	}
	if shards > selector.MaxRouterShards {
		c.broker.Close()
		return nil, fmt.Errorf("core: SelectorShards %d exceeds the maximum %d",
			shards, selector.MaxRouterShards)
	}

	replicas := cfg.SelectorReplicas
	if cfg.SelectorLease > 0 && replicas == 0 {
		replicas = 2 // HA needs standbys; two matches the paper's testbed headroom
	}

	// One selector + standby tier per router shard. The shard selectors
	// hold state and run chains; the group routes and owns the routing
	// metrics, so none of them registers instruments.
	c.repls = make([]*selector.Replicated, shards)
	selCfgs := make([]selector.Config, shards)
	for i := 0; i < shards; i++ {
		selCfg := selector.Config{
			Sites:         dsites,
			Partitioner:   cfg.Partitioner,
			InitialMaster: initial,
			Weights:       cfg.Weights,
			Stats:         cfg.Stats,
			Net:           c.net,
			Seed:          cfg.Seed + int64(i),
			MinReplicas:   minRF,
			MaxReplicas:   maxRF,
			Spans:         c.spans,
			Shard:         i,
			Shards:        shards,
		}
		sel, err := selector.New(selCfg)
		if err != nil {
			c.broker.Close()
			return nil, err
		}
		if partial {
			sel.SetReplicaEnsurer(c.ensureHostedAll)
		}
		c.repls[i] = selector.NewReplicated(sel, replicas, c.net)
		selCfgs[i] = selCfg
	}
	c.repl = c.repls[0]

	// The group dispatches control-plane calls by partition owner and owns
	// the sessions' front, whose placement cache exists whenever the control
	// plane has more than one node (shards or standbys). Built before
	// EnableHA so every shard's lease goroutine starts after c.group is
	// assigned.
	c.group, err = selector.NewGroup(selector.GroupConfig{
		Shards:         c.repls,
		GossipInterval: cfg.PlacementInterval, // reuse the placement cadence knob; 0 = default
		Obs:            c.obs,
	})
	if err != nil {
		c.broker.Close()
		return nil, err
	}

	if cfg.SelectorLease > 0 {
		// Each shard holds its own lease: one key of a shared keyed store,
		// doubling as that shard's remaster-epoch allocator. A shard
		// promotion fences and folds only its own partition range.
		leases := selector.NewKeyedLeaseStore(cfg.SelectorLease, c.net, shards)
		for i := 0; i < shards; i++ {
			ha := selector.HAConfig{
				Lease:  cfg.SelectorLease,
				Broker: c.broker,
				Base:   c.foldBase,
				Obs:    c.obs,
				Store:  leases.View(i),
			}
			if _, err := c.repls[i].EnableHA(selCfgs[i], ha); err != nil {
				c.broker.Close()
				return nil, err
			}
		}
	}
	c.instrument()

	c.slo = obs.NewSLOEngine(c.obs)
	for _, t := range cfg.SLOTargets {
		if err := c.slo.Watch(t); err != nil {
			c.broker.Close()
			return nil, err
		}
	}
	if len(cfg.SLOTargets) > 0 {
		interval := cfg.SLOInterval
		if interval <= 0 {
			interval = time.Second
		}
		c.slo.Start(interval)
	}

	for _, s := range c.sites {
		s.Start()
	}
	if partial {
		// One controller per shard: each decides placement only for the
		// partitions its shard masters (a shard's PlacementSnapshot holds
		// nothing else).
		for i := 0; i < shards; i++ {
			i := i
			ctl := selector.NewPlacementController(
				func() *selector.Selector { return c.group.Shard(i) },
				c, cfg.PlacementPolicy, cfg.PlacementInterval)
			ctl.Start()
			c.placeCtls = append(c.placeCtls, ctl)
		}
	}
	if fd := cfg.FailureDetection; fd.Interval > 0 {
		if fd.Misses <= 0 {
			fd.Misses = 3
		}
		c.hbWG.Add(1)
		go c.heartbeatLoop(fd.Interval, fd.Misses)
	}
	if cfg.WALDir != "" && (cfg.CheckpointEvery > 0 || cfg.CheckpointEveryRecords > 0) {
		c.ckptWG.Add(1)
		go c.checkpointLoop(cfg.CheckpointEvery, cfg.CheckpointEveryRecords)
	}
	return c, nil
}

// instrument registers the cluster-level instruments: end-to-end session
// latency, per-lifecycle-stage latency, and per-site commit gauges.
func (c *Cluster) instrument() {
	reg := c.obs
	reg.Help("dynamast_txn_seconds", "Client-observed transaction latency by type.")
	reg.Help("dynamast_txn_stage_seconds", "Update-transaction lifecycle stage latency.")
	reg.Help("dynamast_site_commits", "Committed update transactions per site (gauge re-export).")
	reg.Help("dynamast_sessions", "Sessions opened against the cluster.")
	c.updateDur = reg.Histogram("dynamast_txn_seconds", obs.L("type", "update"))
	c.readDur = reg.Histogram("dynamast_txn_seconds", obs.L("type", "read"))
	for _, st := range obs.Stages() {
		c.stageDur[st] = reg.Histogram("dynamast_txn_stage_seconds", obs.L("stage", st.String()))
	}
	for i, s := range c.sites {
		s := s
		reg.Func("dynamast_site_commits", obs.KindGauge,
			func() float64 { return float64(s.Commits()) }, obs.Site(i))
	}
	reg.Func("dynamast_sessions", obs.KindGauge,
		func() float64 { return float64(c.sessions.Load()) })
	reg.Help("dynamast_site_failovers_total", "Site failures handled by re-mastering to survivors.")
	c.obFailovers = reg.Counter("dynamast_site_failovers_total")
	reg.Help("dynamast_checkpoints_total", "Committed checkpoints.")
	reg.Help("dynamast_checkpoint_failures_total", "Checkpoint attempts abandoned on error or shutdown.")
	reg.Help("dynamast_checkpoint_bytes_total", "Snapshot bytes written by committed checkpoints.")
	reg.Help("dynamast_checkpoint_seconds", "Wall time per committed checkpoint (export through truncation).")
	reg.Help("dynamast_recovery_replayed_records_total", "WAL records replayed by Cluster.Recover.")
	reg.Help("dynamast_recovery_seconds", "Wall time per Cluster.Recover run.")
	c.obCkpts = reg.Counter("dynamast_checkpoints_total")
	c.obCkptFails = reg.Counter("dynamast_checkpoint_failures_total")
	c.obCkptBytes = reg.Counter("dynamast_checkpoint_bytes_total")
	c.ckptDur = reg.Histogram("dynamast_checkpoint_seconds")
	c.obReplayed = reg.Counter("dynamast_recovery_replayed_records_total")
	c.recoverDur = reg.Histogram("dynamast_recovery_seconds")
	c.spans.Instrument(reg)
	obs.InstrumentFlight(reg)
	obs.RegisterGoRuntime(reg)
}

// Obs exposes the cluster's metrics registry.
func (c *Cluster) Obs() *obs.Registry { return c.obs }

// Spans exposes the distributed-trace span recorder.
func (c *Cluster) Spans() *obs.SpanRecorder { return c.spans }

// SLO exposes the SLO engine (nil-safe methods; no targets unless
// configured).
func (c *Cluster) SLO() *obs.SLOEngine { return c.slo }

// Name implements systems.System.
func (c *Cluster) Name() string { return "dynamast" }

// CreateTable declares a table on every site.
func (c *Cluster) CreateTable(name string) {
	for _, s := range c.sites {
		s.Store().CreateTable(name)
	}
}

// Load installs initial rows on every replica site and seeds the partitions'
// initial mastership on the sites and the selector. Under full replication
// every site receives every row; under partial replication a row lands only
// on the sites in its partition's replica set (the schema still exists
// everywhere — see CreateTable).
//
// Loaded rows bypass the update logs. With Config.WALDir set, Load makes
// them durable by ending with a checkpoint, so Recover restores them even
// if the cluster never checkpoints again. A failed checkpoint is reported
// on stderr and leaves the rows in memory only: they survive a restart only
// if a later checkpoint captures them.
func (c *Cluster) Load(rows []systems.LoadRow) {
	seen := make(map[uint64]struct{})
	loadStamp := storage.Stamp{Origin: 0, Seq: 0} // visible at every snapshot
	for _, row := range rows {
		part := c.cfg.Partitioner(row.Ref)
		if _, ok := seen[part]; !ok {
			seen[part] = struct{}{}
			master := c.group.MasterOf(part) // registers at initial placement on the owning shard
			for i, s := range c.sites {
				s.SetMaster(part, i == master)
			}
		}
		for _, s := range c.sites {
			if !s.Hosts(part) {
				continue
			}
			s.Store().ImportRow(row.Ref.Table, row.Ref.Key, row.Data, loadStamp)
		}
	}
	if c.cfg.WALDir != "" {
		if _, err := c.Checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "core: checkpoint after load: %v\n", err)
		}
	}
}

// Group exposes the selector control plane: routing, routing metrics, and
// every shard's leader (Group().Shard(i)).
func (c *Cluster) Group() *selector.Group { return c.group }

// SelectorShardCount returns the number of router shards (1 = unsharded).
func (c *Cluster) SelectorShardCount() int { return c.group.Shards() }

// SelectorHA exposes shard 0's high-availability state machine, nil unless
// Config.SelectorLease enabled it. Use SelectorShardHA for other shards.
func (c *Cluster) SelectorHA() *selector.HA { return c.repl.HA() }

// SelectorShardHA exposes router shard i's high-availability state
// machine, nil unless Config.SelectorLease enabled it.
func (c *Cluster) SelectorShardHA(i int) *selector.HA { return c.repls[i].HA() }

// KillSelector simulates a crash of the selector node currently holding
// shard 0's leadership and returns its id (0 = initial master, i+1 =
// standby i). The lease expires unrenewed and a surviving standby
// promotes; until then writes the front's cache cannot route fail fast with
// the retryable selector.ErrNoLeader while reads keep flowing. Requires HA.
func (c *Cluster) KillSelector() int { return c.KillSelectorShard(0) }

// KillSelectorShard crashes the current leaseholder of router shard i and
// returns its node id. Only that shard's partition range loses its router
// until a standby promotes — the other shards keep routing. Requires HA.
func (c *Cluster) KillSelectorShard(i int) int {
	ha := c.repls[i].HA()
	if ha == nil {
		return -1
	}
	return ha.KillLeader()
}

// SelectorReplicas returns the number of standby selectors behind each
// router shard's leader (0 unless configured).
func (c *Cluster) SelectorReplicas() int { return c.repl.Standbys() }

// Sites exposes the data sites.
func (c *Cluster) Sites() []*sitemgr.Site { return c.sites }

// Network exposes the simulated network for traffic accounting.
func (c *Cluster) Network() *transport.Network { return c.net }

// Broker exposes the update-log broker (recovery tests).
func (c *Cluster) Broker() *wal.Broker { return c.broker }

// Stats implements systems.System.
func (c *Cluster) Stats() systems.Stats {
	st := systems.Stats{
		Remasters:      c.group.Metrics().RemasterTxns,
		PerSiteCommits: make([]uint64, len(c.sites)),
		Network:        c.net.Stats(),
	}
	for i, s := range c.sites {
		st.PerSiteCommits[i] = s.Commits()
		st.Commits += s.Commits()
	}
	return st
}

// Close shuts down replication and closes the logs. The failure detector
// and background checkpointer stop first (neither must act during
// teardown); an in-flight checkpoint is then waited out — its manifest
// commit is a single atomic rename, so it either completed or left nothing
// — before the broker closes so blocked appliers drain and exit.
// Idempotent: second and later calls return immediately.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		c.closing.Store(true)
		for _, ctl := range c.placeCtls {
			ctl.Stop() // no replica moves during teardown
		}
		c.slo.Stop()
		c.group.Stop() // cache gossip stops before the selectors go away
		for _, repl := range c.repls {
			if ha := repl.HA(); ha != nil {
				ha.Stop() // no promotions during teardown
			}
		}
		close(c.hbStop)
		close(c.ckptStop)
		c.hbWG.Wait()
		c.ckptWG.Wait()
		// Drain any manual Checkpoint in flight; new ones refuse via closing.
		c.ckptMu.Lock()
		c.ckptMu.Unlock() //nolint:staticcheck // empty critical section = barrier
		// Seal every site's in-flight epoch while the logs are still open:
		// acked commits must reach the log before it closes.
		for _, s := range c.sites {
			_ = s.SealEpoch()
		}
		c.broker.Close()
		for _, s := range c.sites {
			s.Stop()
		}
	})
}

// WaitQuiesced blocks until every site has applied every other site's
// committed updates (used between experiment phases and in tests).
func (c *Cluster) WaitQuiesced(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		target := make([]uint64, len(c.sites))
		for i, s := range c.sites {
			if s.Alive() {
				// Epoch-buffered commits are acked but not yet in the svv;
				// quiescence must wait for their seal to replicate too. (A
				// killed site sealed on Kill — its svv is already final.)
				target[i] = s.InstalledSeq()
			} else {
				target[i] = s.SVV()[i]
			}
		}
		ok := true
		for _, s := range c.sites {
			if !s.Alive() {
				continue // a dead site stops applying; survivors still must
			}
			svv := s.SVV()
			for k, want := range target {
				if svv[k] < want {
					ok = false
					break
				}
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("core: cluster did not quiesce within %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// Recover rebuilds a durable cluster's state after a restart. When a valid
// checkpoint exists under Config.WALDir, each site installs its snapshot
// and replays only the WAL suffix past the manifest's offsets — every
// origin's suffix, its own included, merged in dependency order
// (sitemgr.Site.Replay), so when Recover returns every site's version
// vector is at the end of every log. Mastership folds from the manifest's
// placement snapshot plus the post-capture suffix, and the selector's epoch
// counter is bumped past everything the previous incarnation allocated;
// sites recover in parallel. A checkpoint that fails verification falls
// back to the previous one, and with no usable checkpoint recovery degrades
// to the paper's full redo replay. A log entry whose dependencies no
// retained log satisfies makes Recover return an error instead of waiting.
// Call it on a freshly constructed cluster whose Config.WALDir points at
// the previous incarnation's logs, after re-creating the schema with
// CreateTable.
func (c *Cluster) Recover(initialPlacement map[uint64]int) error {
	return c.recover(initialPlacement)
}
