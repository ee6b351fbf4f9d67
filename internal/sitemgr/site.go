// Package sitemgr implements DynaMast's data sites: the integrated site
// manager, database system and replication manager of §V-A.
//
// A Site executes transactions against its local MVCC store, tracks its
// position in the global commit order with a site version vector, publishes
// committed write sets to its update log, and applies other sites' updates
// as refresh transactions under the paper's update application rule
// (Equation 1). It also serves the mastership-transfer RPCs (release and
// grant) and acts as a two-phase-commit participant for the partitioned
// baselines — so every evaluated system runs on the same storage,
// concurrency control and isolation level, matching the paper's
// apples-to-apples methodology.
package sitemgr

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dynamast/internal/obs"
	"dynamast/internal/storage"
	"dynamast/internal/transport"
	"dynamast/internal/vclock"
	"dynamast/internal/wal"
)

// Partitioner maps a row to the partition (data-item group) it belongs to.
// The site selector tracks mastership per partition (§V-B), so every system
// component shares one Partitioner.
type Partitioner func(storage.RowRef) uint64

// Config describes one data site.
type Config struct {
	// SiteID is this site's index in [0, Sites).
	SiteID int
	// Sites is the number of data sites in the system.
	Sites int
	// Net simulates the cluster network; nil means free local calls.
	Net *transport.Network
	// Broker holds the per-site update logs; required.
	Broker *wal.Broker
	// MaxVersions caps each record's version chain (0 = default of 4; at most
	// storage.MaxVersionCap).
	MaxVersions int
	// Partitioner maps rows to partitions; required.
	Partitioner Partitioner
	// ExecSlots is the site's execution parallelism (0 = default 4).
	ExecSlots int
	// EpochInterval, when positive, batches commits into epochs sealed at
	// this interval: one WAL append, one svv advance, and one coalesced
	// replication record per epoch (see epoch.go). Zero disables epochs
	// and keeps per-transaction commit records.
	EpochInterval time.Duration
	// PartialReplication enables per-partition hosting: the site applies
	// refresh writes only for partitions in its replica set (seeded by
	// DefaultHosted, adjusted by HostPartition/UnhostPartition) and poisons
	// reads of non-hosted partitions with ErrNotHosted. The site clock stays
	// dense — appliers advance past filtered entries — see hosting.go.
	PartialReplication bool
	// DefaultHosted is the seed membership function under partial
	// replication: whether this site hosts part before any explicit
	// add/drop decision. Required when PartialReplication is set.
	DefaultHosted func(part uint64) bool
	// Costs prices transactional work; the zero value charges nothing.
	Costs CostModel
	// Obs receives the site's metrics (commit/abort/refresh counters and
	// latency histograms, freshness gauges); nil disables instrumentation.
	Obs *obs.Registry
	// Spans receives the commit/WAL-flush/refresh-apply spans of sampled
	// distributed traces; nil disables span recording.
	Spans *obs.SpanRecorder
}

// ErrNotMaster is returned when a transaction's write set includes a
// partition this site does not master. In the stand-alone-selector
// deployment this cannot happen (the selector serializes remastering with
// routing); the distributed-selector design of Appendix I relies on it to
// detect stale routing metadata, and callers resubmit to the selector.
var ErrNotMaster = errors.New("sitemgr: site does not master a written partition")

// ErrReleasing is returned when a write transaction arrives for a partition
// whose mastership is being released.
var ErrReleasing = errors.New("sitemgr: partition mastership is being released")

// ErrSiteDown is returned by a killed (crashed) site for every transactional
// and mastership operation. Sessions treat it as retryable: the selector
// re-routes to a surviving site once failover re-masters the partitions.
var ErrSiteDown = errors.New("sitemgr: site is down")

// ErrSnapshotTooOld poisons a transaction whose read touched a record with
// no version visible at the begin snapshot even though the record holds
// versions: the bounded version chain (storage.DefaultMaxVersions) may have
// evicted the version the snapshot could see, so the miss cannot be trusted
// — the newest maxVersions installs to a hot row between a transaction's
// begin and its read are enough to bury its whole visible history. Sessions
// treat it as retryable: a fresh begin takes a newer snapshot, at which the
// row's retained versions are visible again.
var ErrSnapshotTooOld = errors.New("sitemgr: begin snapshot predates the retained version history")

// ErrStaleEpoch is returned when a release/grant carries an epoch older than
// one that already fenced the partition — the remaster chain lost a race
// with a newer chain and must not apply.
var ErrStaleEpoch = errors.New("sitemgr: stale remaster epoch")

// partState tracks one partition's local mastership state.
type partState struct {
	owned     bool
	releasing bool
	writers   int // in-flight local update transactions writing it
	// wm is the partition's write watermark: the element-wise max of the
	// commit vectors of all updates to the partition applied at this
	// site. Release returns it so a grant waits only for updates causally
	// relevant to the moved items (§III-B), not full replica catch-up.
	wm vclock.Vector
	// lastEpoch fences mastership changes: the highest remaster epoch that
	// touched this partition. Stale (lower-epoch) release/grant retries are
	// rejected instead of clobbering newer ownership.
	lastEpoch uint64
}

// Site is one data site.
type Site struct {
	cfg   Config
	id    int
	m     int
	clock *vclock.SiteClock
	store *storage.Store
	log   *wal.Log
	net   *transport.Network
	// propDelay is the minimum age of a log entry before a replica applies
	// it, modelling the asynchronous propagation pipeline: the network's
	// one-way latency (0 without a network).
	propDelay time.Duration

	commitMu sync.Mutex    // serializes seq allocation + install + log append
	nextSeq  atomic.Uint64 // local commit sequence allocator
	txnIDs   atomic.Uint64

	// Epoch group commit (see epoch.go). installed is the highest locally
	// installed commit sequence — possibly ahead of the sealed svv — that
	// local snapshots extend to; sealMu serializes seals.
	installed atomic.Uint64
	sealMu    sync.Mutex
	ep        epochState

	pool      *execPool
	applyPool *execPool

	// applyMu[origin] makes applyEntry's {clock check, store install, clock
	// advance} atomic per origin. The background applyLoop and Replay can
	// work the same log suffix concurrently; without this, one replier may
	// install a stale version on top of a newer one the other already
	// applied (version chains are newest-first, so a late stale install
	// poisons the head and every snapshot read after it).
	applyMu []sync.Mutex

	pmu   sync.Mutex
	pcond *sync.Cond
	parts map[uint64]*partState

	// hosting is the partial-replication membership map (nil = the site
	// hosts everything and the apply/read hot paths take no extra locks).
	hosting *hostingState

	prepmu   sync.Mutex
	prepared map[uint64]*preparedTxn

	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup

	// down marks a simulated crash (Kill): every transactional and
	// mastership operation fails fast with ErrSiteDown.
	down atomic.Bool

	// rangeFences holds the remaster-epoch fences a promoted selector
	// installs (FenceEpochsBelowRange), one per router shard range; nil
	// until the first promotion. Release/grant operations carrying a
	// nonzero epoch below a fence covering their partitions are rejected
	// with ErrStaleEpoch, so a deposed coordinator's in-flight chains cannot
	// change ownership after the new coordinator has taken over. fenceMu
	// orders fence installation against in-flight release/grant
	// {floor-check, WAL-append, ownership-flip} sections: once
	// FenceEpochsBelowRange returns, every operation the site will still
	// complete is already in its log — a promotion's WAL fold misses
	// nothing. Updated under fenceMu.
	rangeFences atomic.Pointer[[]rangeFence]
	fenceMu     sync.RWMutex

	// remu guards the epoch memo maps (idempotent release/grant retries).
	remu      sync.Mutex
	relMemo   map[chainKey]vclock.Vector
	grantMemo map[chainKey]vclock.Vector

	// Counters for experiment reporting.
	commits atomic.Uint64

	// Observability (all instruments are nil-safe no-ops when the site is
	// built without a registry).
	ob    siteInstruments
	spans *obs.SpanRecorder
}

// siteInstruments are the site's registered metrics.
type siteInstruments struct {
	commits        *obs.Counter
	aborts         *obs.Counter
	refreshes      *obs.Counter
	refreshBatches *obs.Counter   // apply chunks (refreshes/batches = mean batch size)
	commitDur      *obs.Histogram // full local commit latency
	refreshApply   *obs.Histogram // one apply chunk's application work
	refreshLag     *obs.Histogram // publish -> applied-here delay, per refresh
	lastLag        *obs.Gauge     // most recent refresh lag, seconds
	refreshStage   *obs.Histogram // the shared refresh_apply lifecycle stage

	epochSeals      *obs.Counter   // sealed epochs
	epochTxns       *obs.Counter   // commits that rode a sealed epoch
	epochBytesSaved *obs.Counter   // replication bytes saved vs per-txn frames
	epochSealDur    *obs.Histogram // seal latency (append + flush wait)
}

// instrument registers the site's metrics and freshness gauges.
func (s *Site) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	site := obs.Site(s.id)
	reg.Help("dynamast_commits_total", "Committed update transactions per executing site.")
	reg.Help("dynamast_aborts_total", "Aborted update transactions per site.")
	reg.Help("dynamast_refreshes_total", "Refresh transactions applied per site.")
	reg.Help("dynamast_commit_seconds", "Local commit latency per site (including WAL publish).")
	reg.Help("dynamast_refresh_apply_seconds", "Refresh-transaction application work per site.")
	reg.Help("dynamast_refresh_lag_seconds", "Delay from update publish to application at this site.")
	reg.Help("dynamast_refresh_lag", "Most recent observed refresh lag per site, seconds.")
	reg.Help("dynamast_site_svv", "Site version vector: per-origin applied commit sequence.")
	reg.Help("dynamast_refresh_delay", "Updates published by origin but not yet applied at site.")
	reg.Help("dynamast_refresh_batches_total", "Refresh apply chunks per site (refreshes/batches = mean batch size).")
	reg.Help("dynamast_epoch_seals_total", "Sealed commit epochs per site.")
	reg.Help("dynamast_epoch_txns_total", "Update transactions committed through sealed epochs per site.")
	reg.Help("dynamast_epoch_bytes_saved_total", "Replication bytes saved by epoch coalescing vs per-transaction frames.")
	reg.Help("dynamast_epoch_seal_seconds", "Epoch seal latency per site (log append and group-commit flush).")
	reg.Help("dynamast_epoch_interval_seconds", "Configured epoch seal interval per site (0 = epochs disabled).")
	s.ob = siteInstruments{
		commits:        reg.Counter("dynamast_commits_total", site),
		aborts:         reg.Counter("dynamast_aborts_total", site),
		refreshes:      reg.Counter("dynamast_refreshes_total", site),
		refreshBatches: reg.Counter("dynamast_refresh_batches_total", site),
		commitDur:      reg.Histogram("dynamast_commit_seconds", site),
		refreshApply:   reg.Histogram("dynamast_refresh_apply_seconds", site),
		refreshLag:     reg.Histogram("dynamast_refresh_lag_seconds", site),
		lastLag:        reg.Gauge("dynamast_refresh_lag", site),
		refreshStage:   reg.Histogram("dynamast_txn_stage_seconds", obs.L("stage", "refresh_apply")),

		epochSeals:      reg.Counter("dynamast_epoch_seals_total", site),
		epochTxns:       reg.Counter("dynamast_epoch_txns_total", site),
		epochBytesSaved: reg.Counter("dynamast_epoch_bytes_saved_total", site),
		epochSealDur:    reg.Histogram("dynamast_epoch_seal_seconds", site),
	}
	reg.Func("dynamast_epoch_interval_seconds", obs.KindGauge,
		func() float64 { return s.cfg.EpochInterval.Seconds() }, site)
	reg.Help("dynamast_resident_partitions", "Distinct partitions with rows resident at this site.")
	reg.Func("dynamast_resident_partitions", obs.KindGauge,
		func() float64 { return float64(s.ResidentPartitions()) }, site)
	for origin := 0; origin < s.m; origin++ {
		origin := origin
		olbl := obs.L("origin", fmt.Sprint(origin))
		reg.Func("dynamast_site_svv", obs.KindGauge,
			func() float64 { return float64(s.clock.Get(origin)) }, site, olbl)
		if origin == s.id {
			continue
		}
		// Refresh delay: updates origin has published that this site has
		// not yet applied — the per-site freshness lag the routing
		// strategies reason about (Equation 5).
		log := s.cfg.Broker.Log(origin)
		reg.Func("dynamast_refresh_delay", obs.KindGauge, func() float64 {
			d := int64(log.LastUpdateSeq()) - int64(s.clock.Get(origin))
			if d < 0 {
				d = 0
			}
			return float64(d)
		}, site, olbl)
	}
}

// New constructs a data site. Call Start to launch replication.
func New(cfg Config) (*Site, error) {
	if cfg.Broker == nil {
		return nil, errors.New("sitemgr: config requires a Broker")
	}
	if cfg.Partitioner == nil {
		return nil, errors.New("sitemgr: config requires a Partitioner")
	}
	if cfg.SiteID < 0 || cfg.SiteID >= cfg.Sites {
		return nil, fmt.Errorf("sitemgr: site id %d out of range [0,%d)", cfg.SiteID, cfg.Sites)
	}
	if cfg.MaxVersions < 0 || cfg.MaxVersions > storage.MaxVersionCap {
		return nil, fmt.Errorf("sitemgr: MaxVersions %d outside [0,%d]", cfg.MaxVersions, storage.MaxVersionCap)
	}
	s := &Site{
		cfg:       cfg,
		id:        cfg.SiteID,
		m:         cfg.Sites,
		clock:     vclock.NewSiteClock(cfg.Sites),
		store:     storage.NewStore(cfg.MaxVersions),
		log:       cfg.Broker.Log(cfg.SiteID),
		net:       cfg.Net,
		propDelay: cfg.Net.Config().OneWay,
		parts:     make(map[uint64]*partState),
		prepared:  make(map[uint64]*preparedTxn),
		stopped:   make(chan struct{}),
		pool:      newExecPool(cfg.ExecSlots),
		relMemo:   make(map[chainKey]vclock.Vector),
		grantMemo: make(map[chainKey]vclock.Vector),
		applyMu:   make([]sync.Mutex, cfg.Sites),
	}
	if cfg.PartialReplication {
		s.hosting = &hostingState{
			def:       cfg.DefaultHosted,
			overrides: make(map[uint64]bool),
		}
	}
	s.applyPool = newExecPool(applySlots)
	s.pcond = sync.NewCond(&s.pmu)
	s.ep.cond = sync.NewCond(&s.ep.mu)
	s.spans = cfg.Spans
	s.instrument(cfg.Obs)
	return s, nil
}

// ID returns the site's index.
func (s *Site) ID() int { return s.id }

// Store exposes the site's database for loading and direct inspection.
func (s *Site) Store() *storage.Store { return s.store }

// SVV returns a snapshot of the site version vector.
func (s *Site) SVV() vclock.Vector { return s.clock.Now() }

// Clock exposes the site clock (used by routing strategies to estimate
// refresh delay, Equation 5).
func (s *Site) Clock() *vclock.SiteClock { return s.clock }

// Commits returns the number of locally committed update transactions.
func (s *Site) Commits() uint64 { return s.commits.Load() }

// Start launches the refresh appliers (one per remote site) and, with
// epochs on, the epoch sealer.
func (s *Site) Start() {
	if s.epochOn() {
		s.wg.Add(1)
		go s.sealerLoop()
	}
	for origin := 0; origin < s.m; origin++ {
		if origin == s.id {
			continue
		}
		s.wg.Add(1)
		go s.applyLoop(origin)
	}
}

// Kill simulates a site crash: the site stops applying refreshes, rejects
// every new transactional and mastership operation with ErrSiteDown, and
// wakes anything parked on its clock or partition conditions so no caller
// hangs on a dead site. The site's WAL (in the shared broker) survives —
// exactly the paper's §V-C failure model, where the data store is lost but
// the durable logs are not.
func (s *Site) Kill() {
	if !s.down.CompareAndSwap(false, true) {
		return
	}
	s.stopOnce.Do(func() {
		close(s.stopped)
		s.clock.Interrupt()
	})
	s.pmu.Lock()
	s.pcond.Broadcast()
	s.pmu.Unlock()
	if s.epochOn() {
		// A commit that saw down==false is inside commitMu; the barrier
		// waits it into the buffer so the final seal below covers every
		// acked commit (the paper's failure model keeps the logs — an acked
		// commit must not be stranded in a dead site's buffer). Commits
		// arriving after the barrier observe down==true and abort.
		s.commitMu.Lock()
		s.commitMu.Unlock() //nolint:staticcheck // empty critical section = barrier
		_ = s.SealEpoch()
	}
}

// Alive reports whether the site has not been killed.
func (s *Site) Alive() bool { return !s.down.Load() }

// Stop terminates replication appliers and waits for them to exit.
// Appliers block on the broker's logs, so callers must close the broker
// (or at least the remote sites' logs) before calling Stop; core.Cluster's
// Close tears down in that order.
func (s *Site) Stop() {
	s.stopOnce.Do(func() {
		close(s.stopped)
		// Wake appliers parked on causal dependencies that can no longer
		// arrive (their producer appliers may already have exited).
		s.clock.Interrupt()
	})
	s.wg.Wait()
}

// maxRefreshBatch bounds how many log entries an applier drains per cursor
// wake: large enough to amortize wake/lock/slot costs over a backlog, small
// enough that the site clock advances (and freshness gauges move) at a fine
// grain while catching up.
const maxRefreshBatch = 64

// applyLoop subscribes to origin's update log and applies committed
// transactions as refresh transactions, blocking per the update application
// rule so that a consistent order is maintained (Equation 1). Entries are
// delivered per-origin FIFO; the rule's svv[origin] == tvv[origin]-1 clause
// holds exactly when the previous entry from origin has been applied, so
// the loop only needs to wait on the cross-origin dependency clauses.
//
// The loop drains the log in batches (one cursor wake per backlog, not per
// entry) and applies each batch in chunks of consecutively-ready entries,
// amortizing dependency waits, network byte accounting, and apply-pool slot
// acquisition across the chunk.
func (s *Site) applyLoop(origin int) {
	defer s.wg.Done()
	cur := s.cfg.Broker.Log(origin).Subscribe(0)
	defer cur.Close()
	// The batch buffer is pooled across applier generations (site restarts,
	// recovery appliers); entries only borrow the log's write sets, so the
	// pool's zero-on-put keeps parked buffers from pinning payload memory.
	bp := wal.GetBatch()
	defer wal.PutBatch(bp)
	batch := *bp
	defer func() { *bp = batch }()
	for {
		var ok bool
		batch, ok = cur.NextBatch(batch[:0], maxRefreshBatch)
		if !ok {
			return // log closed and drained
		}
		select {
		case <-s.stopped:
			return
		default:
		}
		if !s.applyBatch(origin, batch) {
			return
		}
	}
}

// applyBatch applies consecutive entries of origin's log, chunking them:
// the blocking gates (propagation delay, Equation 1 dependency waits) run
// on the first entry of each chunk only, OUTSIDE any apply-pool slot —
// holding a slot while parked on a cross-origin dependency could starve
// the applier that would satisfy it. An update chunk is then greedily
// extended with updates already applicable under one clock snapshot;
// extension is conservative: it requires consecutive same-origin sequence
// numbers (commit order makes origin's log dense in that dimension, so
// sequential in-chunk application preserves the svv[origin]==tvv[origin]-1
// clause) and snapshot-satisfied cross-origin clauses, and anything not
// provably ready ends the chunk and re-enters the blocking gate. A sealed
// epoch is its own chunk, gated once on its closing vector (see
// vclock.CanApplyEpoch). Each chunk occupies one apply-pool slot and is
// charged its summed cost. Returns false when the site stopped.
func (s *Site) applyBatch(origin int, batch []wal.Entry) bool {
	// Under partial replication kept collects an entry's installed members
	// with their filtered writes, which is what this site is shipped.
	var kept []wal.EpochTxn
	i := 0
	for i < len(batch) {
		e := &batch[i]
		if !e.IsUpdate() || e.TVV[origin] <= s.clock.Get(origin) {
			i++ // mastership record, or already applied (bootstrap/recovery overlap)
			continue
		}
		// Model asynchronous propagation: the update becomes available
		// here only after the pipeline delay.
		if d := s.propDelay; d > 0 {
			if age := time.Since(e.At); age < d {
				if !s.sleep(d - age) {
					return false
				}
			}
		}
		// Wait until every transaction the chunk head depends on has been
		// applied: origin's entry before it (an update is the one-member
		// epoch, first == last) and the cross-origin clauses.
		s.clock.WaitDimAtLeast(origin, e.FirstSeq()-1)
		for k, want := range e.TVV {
			if k != origin && want > 0 {
				s.clock.WaitDimAtLeast(k, want)
			}
		}
		// The waits return unconditionally once the site stops; never apply
		// an update whose dependencies were not actually satisfied.
		select {
		case <-s.stopped:
			return false
		default:
		}
		end := i + 1
		if e.Kind == wal.KindUpdate {
			// Greedily extend the chunk with updates ready under one snapshot.
			snap := s.clock.Now()
			prevSeq := e.TVV[origin]
		extend:
			for end < len(batch) {
				n := &batch[end]
				if n.Kind != wal.KindUpdate || n.TVV[origin] != prevSeq+1 {
					break
				}
				if d := s.propDelay; d > 0 && time.Since(n.At) < d {
					break
				}
				for k, want := range n.TVV {
					if k != origin && want > snap[k] {
						break extend
					}
				}
				prevSeq = n.TVV[origin]
				end++
			}
		}
		chunk := batch[i:end]
		if s.hosting == nil {
			var bytes int
			for j := range chunk {
				var one [1]wal.EpochTxn
				_, txns := members(&chunk[j], &one)
				bytes += frameBytes(&chunk[j], txns)
			}
			s.net.Account(transport.CatReplication, bytes)
		}
		applyStart := time.Now()
		s.applyPool.do(func() time.Duration {
			var cost time.Duration
			var bytes int
			for j := range chunk {
				kept = kept[:0]
				n, writes := s.applyEntry(origin, &chunk[j], &kept)
				if n == 0 {
					continue // installed by a recovery replay after the gate
				}
				if s.hosting != nil {
					// Per-destination frame filtering: this site receives the
					// envelope and vectors (the svv must advance) but only the
					// write payloads it hosts.
					bytes += frameBytes(&chunk[j], kept)
				}
				if !s.cfg.Costs.Zero() {
					// One refresh base per entry: a sealed epoch is applied as
					// one refresh unit.
					cost += s.cfg.Costs.RefreshBase + time.Duration(writes)*s.cfg.Costs.PerRefreshWrite
				}
			}
			if bytes > 0 {
				s.net.Account(transport.CatReplication, bytes)
			}
			return cost
		})
		s.ob.refreshBatches.Inc()
		s.ob.refreshApply.ObserveDuration(time.Since(applyStart))
		now := time.Now()
		for j := range chunk {
			var one [1]wal.EpochTxn
			first, txns := members(&chunk[j], &one)
			for m := range txns {
				seq, lag := first+uint64(m), now.Sub(txns[m].At)
				s.ob.refreshes.Inc()
				s.ob.refreshLag.ObserveDuration(lag)
				s.ob.lastLag.Set(lag.Seconds())
				s.ob.refreshStage.ObserveDuration(lag)
				s.spans.RefreshApplied(origin, seq, s.id, lag, now)
			}
		}
		i = end
	}
	return true
}

// members returns the transactions an update or sealed-epoch entry carries
// and the commit sequence of the first; member j has sequence first+j. A
// KindUpdate entry is the one-member case of a KindEpoch, staged in one.
// Mastership records carry none.
func members(e *wal.Entry, one *[1]wal.EpochTxn) (first uint64, txns []wal.EpochTxn) {
	switch e.Kind {
	case wal.KindUpdate:
		one[0] = wal.EpochTxn{TVV: e.TVV, At: e.At, Writes: e.Writes}
		txns = one[:]
	case wal.KindEpoch:
		txns = e.Txns
	}
	return e.FirstSeq(), txns
}

// applyEntry installs one update or sealed-epoch entry of origin's log: it
// is the only path by which log entries reach the store, shared by the
// refresh appliers and Replay, whose callers have already established the
// entry's dependencies (Equation 1, CanApplyEpoch for an epoch). Under
// applyMu[origin] it skips the members the clock already covers, filters
// each remaining member to hosted partitions (hosting flips hold every apply
// mutex, so the decision is exactly ordered against them), installs it,
// folds its vector into the partition watermarks, and then advances the
// clock once — past fully filtered members too, so the svv stays dense (see
// hosting.go). Replaying this site's own log also moves the commit sequence
// allocator past the entry.
//
// It returns how many members it installed and how many writes they kept.
// With kept non-nil, a partially replicating site also appends each
// installed member that kept any writes, filtered, for per-destination
// frame pricing.
func (s *Site) applyEntry(origin int, e *wal.Entry, kept *[]wal.EpochTxn) (installed, writes int) {
	var one [1]wal.EpochTxn
	first, txns := members(e, &one)
	s.applyMu[origin].Lock()
	defer s.applyMu[origin].Unlock()
	base := s.clock.Get(origin)
	for j := range txns {
		seq := first + uint64(j)
		if seq <= base {
			continue
		}
		t := txns[j]
		if s.hosting != nil {
			t.Writes = s.filterHosted(t.Writes)
			if kept != nil && len(t.Writes) > 0 {
				*kept = append(*kept, t)
			}
		}
		s.store.Apply(storage.Stamp{Origin: origin, Seq: seq}, t.Writes)
		s.bumpWatermarks(t.Writes, t.TVV)
		installed++
		writes += len(t.Writes)
	}
	if installed == 0 {
		return 0, 0
	}
	last := e.TVV[origin]
	s.clock.Advance(origin, last)
	if origin == s.id && s.nextSeq.Load() < last {
		s.nextSeq.Store(last)
	}
	return installed, writes
}

// frameBytes prices origin's entry e as shipped to this site carrying the
// member write sets txns: the full members under full replication, only the
// hosted ones under partial replication. A single update prices as its
// envelope, vector and writes; a sealed epoch as its coalesced wire frame,
// so partial- and full-replication accounting stay byte-comparable. Fully
// filtered epoch members need no vector on the wire — the dense svv
// advances by the member count and the closing vector covers the gate.
func frameBytes(e *wal.Entry, txns []wal.EpochTxn) int {
	if e.Kind == wal.KindEpoch {
		f := *e
		f.Txns = txns
		return transport.MsgOverhead + wal.EntryWireSize(&f)
	}
	n := transport.MsgOverhead + transport.SizeOfVector(e.TVV)
	if len(txns) > 0 {
		n += transport.SizeOfWrites(txns[0].Writes)
	}
	return n
}

// sleep waits for d unless the site stops first.
func (s *Site) sleep(d time.Duration) bool {
	select {
	case <-s.stopped:
		return false
	case <-time.After(d):
		return true
	}
}

// partition returns (creating if needed) the state for part. Caller holds pmu.
func (s *Site) partition(part uint64) *partState {
	p := s.parts[part]
	if p == nil {
		p = &partState{}
		s.parts[part] = p
	}
	return p
}

// SetMaster marks this site as (non-)master for part without logging; used
// for initial placement at load time.
func (s *Site) SetMaster(part uint64, owned bool) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	st := s.partition(part)
	st.owned = owned
	st.releasing = false
	s.pcond.Broadcast()
}

// Masters reports whether this site currently masters part.
func (s *Site) Masters(part uint64) bool {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	p := s.parts[part]
	return p != nil && p.owned && !p.releasing
}

// bumpWatermarks folds a committed transaction's vector into the write
// watermarks of the partitions its writes touch.
func (s *Site) bumpWatermarks(writes []storage.Write, tvv vclock.Vector) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	var last *partState
	for _, w := range writes {
		p := s.partition(s.cfg.Partitioner(w.Ref))
		// Folding the same vector twice is a no-op, so partitions need no
		// dedupe set; skipping a run of writes to one partition is enough.
		if p != last {
			p.wm = p.wm.MaxInto(tvv)
			last = p
		}
	}
}

// writePartitions returns the deduplicated partition ids of a write set.
func (s *Site) writePartitions(refs []storage.RowRef) []uint64 {
	seen := make(map[uint64]struct{}, len(refs))
	var out []uint64
	for _, r := range refs {
		p := s.cfg.Partitioner(r)
		if _, ok := seen[p]; !ok {
			seen[p] = struct{}{}
			out = append(out, p)
		}
	}
	return out
}
