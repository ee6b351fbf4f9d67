package selector

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dynamast/internal/obs"
	"dynamast/internal/sitemgr"
	"dynamast/internal/transport"
	"dynamast/internal/vclock"
	"dynamast/internal/wal"
)

// Selector high availability: a leader + standby control plane.
//
// The selector tier is DynaMast's availability-critical state: every update
// transaction passes through it, and its partition map is the routing
// truth. This file puts leadership under a renewable lease with fencing
// tokens. Standbys (replica.go) hold no state; a promotion rebuilds the map
// from the one source recovery and failover also use:
//
//   - The lease lives in a LeaseStore, standing in for the small
//     highly-available coordination service (etcd/ZooKeeper-style) such
//     deployments assume. Crucially, the store is also the SINGLE remaster
//     epoch allocator, and every allocation validates the caller's lease —
//     so the promotion fence (one fresh epoch) trivially dominates every
//     epoch any leader ever issued, and a deposed leader cannot mint new
//     ones. That closes the classic lagging-observer hole: no standby-side
//     counter copy can lag an in-flight allocation.
//   - The leader renews its lease every Lease/4. When the lease expires
//     (leader crashed, or stalled past the TTL), a standby promotes:
//     (1) acquire the lease (mutually exclusive, fresh token);
//     (2) FENCE every data site with a freshly allocated epoch, so any
//         in-flight release/grant from the deposed leader dies with
//         ErrStaleEpoch — and, via the sites' fence lock, every operation
//         that will still complete is already in its WAL;
//     (3) REBUILD the map (sitemgr.FoldMastership) from the last committed
//         checkpoint, read before the fence, and the per-site WALs past
//         its fold offsets;
//     (4) REPAIR dangling releases (release logged, grant never executed:
//         the old leader died between the two legs) by re-granting the
//         partitions to the releasing site under a fresh epoch;
//     (5) SWAP in a new Selector built on the rebuilt map.
//
// The fence-before-fold order is what makes the map sound: after step (2)
// no deposed-leader operation can reach any site's log, so the rebuild in
// step (3) is a complete account of site-level ownership. Routing
// unavailability is bounded by the expiry-detection delay plus promotion
// work — about 1.5x the lease TTL — during which writes the front cannot
// serve from its placement cache fail fast with the retryable ErrNoLeader,
// and reads keep flowing.

// ErrNoLeader is returned by write routing (and lease-validated epoch
// allocation) while the selector tier has no active leader — during the
// window between a leader crash and a standby's promotion, or forever on a
// deposed leader. Sessions treat it as retryable: the existing bounded
// backoff rides out the failover window.
var ErrNoLeader = errors.New("selector: no control-plane leader (lease failover in progress)")

// leaseMsg is the modelled size of one lease-store operation on the wire.
const leaseMsg = transport.MsgOverhead + 16

// KeyedLeaseStore models the coordination service holding the selector
// leadership leases. It is deliberately simple shared state guarded by one
// mutex per key — the stand-in for a quorum system assumed reliable — but
// its interface is exactly what a remote lease service provides: acquire
// with TTL and fencing token, renew, and token-validated epoch allocation.
// Every operation charges control-plane traffic.
//
// The store is keyed so one service instance can hold many independent
// leases: the sharded selector keeps one lease per router shard, and each
// key's epoch counter is that shard's remaster-epoch allocator. Keys are
// fully independent — one shard's promotion fence (a fresh epoch from ITS
// key) says nothing about another shard's epochs, which is exactly the
// "one shard's fence dominates only its range" invariant the range-scoped
// site fences enforce. The single-leader deployment is the 1-key store.
type KeyedLeaseStore struct {
	net   *transport.Network
	ttl   time.Duration
	cells []leaseCell
}

// leaseCell is one key's lease + epoch-allocator state.
type leaseCell struct {
	mu     sync.Mutex
	holder int // node id; -1 = vacant
	token  uint64
	expiry time.Time
	epochs uint64 // this key's remaster-epoch allocator under HA

	renewals atomic.Uint64
	expiries atomic.Uint64
}

// NewKeyedLeaseStore builds a lease store with n independent keys, all
// sharing one TTL.
func NewKeyedLeaseStore(ttl time.Duration, net *transport.Network, n int) *KeyedLeaseStore {
	if n < 1 {
		n = 1
	}
	ks := &KeyedLeaseStore{net: net, ttl: ttl, cells: make([]leaseCell, n)}
	for i := range ks.cells {
		ks.cells[i].holder = -1
	}
	return ks
}

// View returns the single-lease view of one key: the LeaseStore interface
// the HA machinery (and a shard's epoch source) operates on.
func (ks *KeyedLeaseStore) View(key int) *LeaseStore {
	return &LeaseStore{ks: ks, cell: &ks.cells[key]}
}

// LeaseStore is a single lease (one key of a KeyedLeaseStore): the
// leadership lease plus the remaster-epoch allocator fenced by it. The
// classic single-leader deployment is View(0) of a 1-key store.
type LeaseStore struct {
	ks   *KeyedLeaseStore
	cell *leaseCell
}

// NewLeaseStore builds a stand-alone single-lease store with the given TTL.
func NewLeaseStore(ttl time.Duration, net *transport.Network) *LeaseStore {
	return NewKeyedLeaseStore(ttl, net, 1).View(0)
}

func (ls *LeaseStore) charge() {
	ls.ks.net.Account(transport.CatLease, leaseMsg)
}

// Acquire grants the lease to node if it is vacant or expired (or already
// held by node), returning a fresh fencing token. Exactly one concurrent
// caller can win a vacant lease.
func (ls *LeaseStore) Acquire(node int) (uint64, bool) {
	ls.charge()
	c := ls.cell
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	if c.holder >= 0 && c.holder != node && now.Before(c.expiry) {
		return 0, false
	}
	c.holder = node
	c.token++
	c.expiry = now.Add(ls.ks.ttl)
	return c.token, true
}

// Renew extends the lease if node still holds it under token. A renewal
// after nominal expiry succeeds as long as no other node acquired in
// between — the check is linearized by the store, so this never resurrects
// a superseded leader.
func (ls *LeaseStore) Renew(node int, token uint64) bool {
	ls.charge()
	c := ls.cell
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.holder != node || c.token != token {
		return false
	}
	c.expiry = time.Now().Add(ls.ks.ttl)
	c.renewals.Add(1)
	return true
}

// Expired reports whether the lease is currently claimable: vacant, or
// past its expiry.
func (ls *LeaseStore) Expired() bool {
	ls.charge()
	c := ls.cell
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.holder < 0 || time.Now().After(c.expiry)
}

// Holder returns the current lease holder and token (holder -1 = vacant;
// the lease may be expired — see Expired).
func (ls *LeaseStore) Holder() (int, uint64) {
	c := ls.cell
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.holder, c.token
}

// AllocEpoch allocates the next remaster epoch, validating that the caller
// still holds the lease. Every epoch an HA shard issues comes from here,
// which is what lets one fresh epoch fence out all prior leaders of the
// same key (and only them).
func (ls *LeaseStore) AllocEpoch(node int, token uint64) (uint64, error) {
	ls.charge()
	c := ls.cell
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.holder != node || c.token != token {
		return 0, ErrNoLeader
	}
	c.epochs++
	return c.epochs, nil
}

// CurrentEpoch returns the highest epoch allocated so far.
func (ls *LeaseStore) CurrentEpoch() uint64 {
	c := ls.cell
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epochs
}

// BumpEpoch raises the allocator to at least n (carrying over epochs a
// pre-HA selector already issued).
func (ls *LeaseStore) BumpEpoch(n uint64) {
	c := ls.cell
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epochs < n {
		c.epochs = n
	}
}

// Renewals returns how many successful lease renewals have occurred.
func (ls *LeaseStore) Renewals() uint64 { return ls.cell.renewals.Load() }

// leaseEpochs adapts the store to the selector's epochSource: allocations
// are lease-validated, so they fail with ErrNoLeader once the owning
// selector is deposed.
type leaseEpochs struct {
	store *LeaseStore
	node  int
	token uint64
}

func (l *leaseEpochs) Alloc() (uint64, error) { return l.store.AllocEpoch(l.node, l.token) }
func (l *leaseEpochs) Current() uint64        { return l.store.CurrentEpoch() }
func (l *leaseEpochs) Bump(n uint64)          { l.store.BumpEpoch(n) }

// HAConfig configures the selector high-availability tier.
type HAConfig struct {
	// Lease is the leadership lease TTL. The leader renews (and standbys
	// check) every Lease/4; worst-case write unavailability on a leader
	// crash is about Lease + Lease/4 plus promotion work.
	Lease time.Duration
	// Broker holds the per-site WALs promotion folds; required.
	Broker *wal.Broker
	// Base returns the last committed checkpoint's fold base (placement,
	// install epochs and fold offsets) each promotion rebuilds from. Nil
	// means the zero base: the whole logs, which is complete while no
	// checkpointer truncates them.
	Base func() sitemgr.FoldBase
	// Obs receives the dynamast_selector_* leadership metrics.
	Obs *obs.Registry
	// Store, when non-nil, is the lease (+ epoch allocator) this tier uses —
	// typically one key's view of a KeyedLeaseStore shared by all router
	// shards. Nil builds a private single-lease store.
	Store *LeaseStore
}

// HA is the selector tier's leadership state machine: lease renewal on the
// leader and expiry watch + promotion on the standbys. In-process it is one
// goroutine playing all the nodes' timers; the protocol state (lease,
// tokens, epochs) lives in the LeaseStore exactly as it would in an
// external coordination service.
type HA struct {
	repl   *Replicated
	store  *LeaseStore
	cfg    HAConfig
	selCfg Config

	// node is the current leader: 0 = the initial master selector's
	// process, i+1 = standby i.
	node  atomic.Int32
	token uint64 // current lease token (run goroutine only)

	killed []atomic.Bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	obLeader       *obs.Gauge
	obChanges      *obs.Counter
	obExpiries     *obs.Counter
	obPromoteFails *obs.Counter
	obPromoteDur   *obs.Histogram
}

// EnableHA puts the selector tier under lease-based leadership: the master
// becomes the initial leader (its epoch allocator moves into the lease
// store), and a background watcher renews the lease and promotes a standby
// when it expires. Requires at least one standby. The tier's shard range is
// selCfg's Shard of Shards: promotion fences, folds and repairs only the
// partitions in it.
func (r *Replicated) EnableHA(selCfg Config, cfg HAConfig) (*HA, error) {
	if r.standbys == 0 {
		return nil, fmt.Errorf("selector: HA requires at least one replica standby")
	}
	if cfg.Lease <= 0 {
		return nil, fmt.Errorf("selector: HA requires a positive lease TTL")
	}
	if cfg.Broker == nil {
		return nil, fmt.Errorf("selector: HA requires the WAL broker")
	}
	if r.ha != nil {
		return nil, fmt.Errorf("selector: HA already enabled")
	}
	store := cfg.Store
	if store == nil {
		store = NewLeaseStore(cfg.Lease, r.net)
	}
	store.BumpEpoch(r.Master.CurrentEpoch())
	token, ok := store.Acquire(0)
	if !ok {
		return nil, fmt.Errorf("selector: initial lease acquisition failed")
	}
	ha := &HA{
		repl:   r,
		store:  store,
		cfg:    cfg,
		selCfg: selCfg,
		killed: make([]atomic.Bool, r.standbys+1),
		stop:   make(chan struct{}),
	}
	ha.token = token
	r.Master.setEpochSource(&leaseEpochs{store: store, node: 0, token: token})
	ha.instrument(cfg.Obs)
	r.ha = ha
	ha.wg.Add(1)
	go ha.run()
	return ha, nil
}

// instrument registers the leadership metrics. A sharded tier labels every
// series with its shard index so N shards' instruments stay distinct in one
// registry.
func (ha *HA) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Help("dynamast_selector_leader", "Selector node currently holding the leadership lease (0 = initial master, i+1 = standby i).")
	reg.Help("dynamast_selector_leader_changes_total", "Selector leadership changes (lease acquisitions by a new node).")
	reg.Help("dynamast_selector_lease_epoch", "Highest remaster epoch issued by the lease store's allocator.")
	reg.Help("dynamast_selector_lease_renewals_total", "Successful leadership lease renewals.")
	reg.Help("dynamast_selector_lease_expiries_total", "Lease expiries observed by the standby watcher.")
	reg.Help("dynamast_selector_promotion_seconds", "Standby promotion latency (fence, rebuild, repair, swap).")
	reg.Help("dynamast_selector_promotion_failures_total", "Promotion attempts that fenced the sites but could not rebuild the map; each is retried on the next tick.")
	var labels []obs.Label
	if ha.selCfg.Shards > 1 {
		labels = append(labels, obs.L("shard", fmt.Sprint(ha.selCfg.Shard)))
	}
	ha.obLeader = reg.Gauge("dynamast_selector_leader", labels...)
	ha.obLeader.Set(0)
	ha.obChanges = reg.Counter("dynamast_selector_leader_changes_total", labels...)
	ha.obExpiries = reg.Counter("dynamast_selector_lease_expiries_total", labels...)
	ha.obPromoteFails = reg.Counter("dynamast_selector_promotion_failures_total", labels...)
	ha.obPromoteDur = reg.Histogram("dynamast_selector_promotion_seconds", labels...)
	reg.Func("dynamast_selector_lease_epoch", obs.KindGauge, func() float64 {
		return float64(ha.store.CurrentEpoch())
	}, labels...)
	reg.Func("dynamast_selector_lease_renewals_total", obs.KindCounter, func() float64 {
		return float64(ha.store.Renewals())
	}, labels...)
}

// KillNode simulates a crash of selector node (0 = initial master, i+1 =
// standby i): a killed leader stops renewing — its lease expires and a
// standby promotes — and a killed standby is skipped as a promotion
// candidate. Killing the current leader also deposes its selector so
// in-flight routing fails fast rather than acting on dead authority.
func (ha *HA) KillNode(node int) {
	if node < 0 || node >= len(ha.killed) {
		return
	}
	ha.killed[node].Store(true)
	if int(ha.node.Load()) == node {
		ha.repl.Leader().depose()
	}
}

// KillLeader crashes the node currently holding leadership and returns its
// id.
func (ha *HA) KillLeader() int {
	node := int(ha.node.Load())
	ha.KillNode(node)
	return node
}

// Stop terminates the HA watcher goroutine.
func (ha *HA) Stop() {
	ha.stopOnce.Do(func() { close(ha.stop) })
	ha.wg.Wait()
}

// run plays the tier's timers: the live leader renews at TTL/4, and the
// standby watcher promotes when the lease expires. One goroutine holds
// both roles because the simulation is in-process; the store's
// token-validated operations are what keep the roles honest.
func (ha *HA) run() {
	defer ha.wg.Done()
	interval := ha.cfg.Lease / 4
	if interval < 100*time.Microsecond {
		interval = 100 * time.Microsecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ha.stop:
			return
		case <-ticker.C:
		}
		leader := int(ha.node.Load())
		if !ha.killed[leader].Load() {
			ha.store.Renew(leader, ha.token)
			continue
		}
		if holder, _ := ha.store.Holder(); holder != leader {
			ha.promote() // a failed promotion left the lease with its candidate
		} else if ha.store.Expired() {
			ha.obExpiries.Inc()
			ha.promote()
		}
	}
}

// promote elects the next live node and runs the fence -> rebuild ->
// repair -> swap sequence described in the file comment. A failed step
// leaves the lease with the candidate and the old (dead) leader in place;
// the next tick retries from Acquire, which succeeds for the same node.
func (ha *HA) promote() {
	start := time.Now()
	n := ha.repl.standbys + 1
	cur := int(ha.node.Load())
	cand := -1
	for off := 1; off <= n; off++ {
		c := (cur + off) % n
		if !ha.killed[c].Load() {
			cand = c
			break
		}
	}
	if cand < 0 {
		return // no live selector node; keep watching
	}
	token, ok := ha.store.Acquire(cand)
	if !ok {
		return
	}

	old := ha.repl.Leader()
	old.depose()

	// The base predates the fence, so a release whose grant the fence
	// refuses lies past its fold offsets and folds as dangling.
	var base sitemgr.FoldBase
	if ha.cfg.Base != nil {
		base = ha.cfg.Base()
	}

	// (2) Fence: one fresh epoch dominates every epoch any leader ever
	// issued (single allocator), installed at every site BEFORE the fold
	// so no deposed-leader chain can write a release/grant the fold would
	// miss. A site we cannot reach is marked down on the new leader: it is
	// dead or partitioned from the control plane, and the site-failover
	// path re-masters its partitions under yet-higher epochs.
	fence, err := ha.store.AllocEpoch(cand, token)
	if err != nil {
		return
	}
	unfenced := ha.fenceSites(fence)

	// (3) Rebuild from the last checkpoint's base and the log suffix past
	// it. Two checkpoints committing between the base read and the fold
	// can truncate past the base; the next tick retries on the newer one,
	// and the counted failure makes a retry loop visible. The tier keeps
	// only its own shard range: the other shards' partitions are their
	// leaders' business, and their epochs come from different allocators.
	fold, err := sitemgr.FoldMastership(ha.cfg.Broker, base)
	if err != nil {
		ha.obPromoteFails.Inc()
		return
	}

	// Build the new selector on the rebuilt map. Strategy weights carry over
	// from the deposed leader (sweeps may have changed them mid-run); access
	// statistics restart and warm back up.
	selCfg := ha.selCfg
	selCfg.Weights = old.Weights()
	newSel, err := New(selCfg)
	if err != nil {
		return
	}
	for i := range selCfg.Sites {
		if old.SiteDown(i) || unfenced[i] {
			newSel.MarkDown(i)
		}
	}
	adopted := newSel.adoptPlacement(fold.Owner, fold.Epoch)
	newSel.setEpochSource(&leaseEpochs{store: ha.store, node: cand, token: token})

	// (4) Repair dangling releases: the old leader died between a release
	// and its grant, so the releasing site — still holding the data —
	// gave up ownership into the void. Re-grant to the releaser under a
	// fresh epoch (nil release vector: nothing moved, no catch-up).
	byOrigin := make(map[int][]uint64)
	for p, origin := range fold.Dangling {
		if !newSel.owns(p) {
			continue // another shard's range; its own promotion repairs it
		}
		if newSel.SiteDown(origin) {
			continue // site failover re-masters these under higher epochs
		}
		byOrigin[origin] = append(byOrigin[origin], p)
	}
	for origin, parts := range byOrigin {
		epoch, err := ha.store.AllocEpoch(cand, token)
		if err != nil {
			return
		}
		if _, err := newSel.remasterCall(origin,
			transport.MsgOverhead+transport.SizeOfPartitions(parts),
			func() (vclock.Vector, error) {
				return ha.selCfg.Sites[origin].Grant(parts, nil, origin, epoch)
			}); err != nil {
			continue // heartbeat failover covers a site that dies here
		}
		for _, p := range parts {
			newSel.RegisterPartitionEpoch(p, origin, epoch)
		}
	}

	// (5) Swap leadership; the placement cache's feed follows the leader.
	newSel.SetDeltaFeed(ha.repl.deliverDelta)
	ha.repl.leader.Store(newSel)
	ha.node.Store(int32(cand))
	ha.token = token

	dur := time.Since(start)
	ha.obLeader.Set(float64(cand))
	ha.obChanges.Inc()
	ha.obPromoteDur.ObserveDuration(dur)
	obs.RecordEvent(obs.FlightLeaderChange, obs.SelectorSite,
		"selector node %d promoted (fence epoch %d, %d partition(s), %d dangling repaired) in %v",
		cand, fence, adopted, len(fold.Dangling), dur)
}

// fenceSites installs the fence epoch at every data site, returning which
// sites could not be reached (request leg lost through every retry).
// Response loss is ignored: the fence installed, which is all that
// matters, and re-fencing is idempotent. The fence is range-scoped to this
// tier's shard (site-wide for one shard), so a zombie leader of THIS shard
// dies with ErrStaleEpoch while the other shards' in-flight chains —
// stamped from different allocators — pass untouched.
func (ha *HA) fenceSites(fence uint64) []bool {
	unfenced := make([]bool, len(ha.selCfg.Sites))
	for i, site := range ha.selCfg.Sites {
		sent := false
		for attempt := 0; attempt <= remasterSendRetries && !sent; attempt++ {
			if attempt > 0 {
				transport.CountRetry()
			}
			if ha.repl.net.SendTo(transport.CatLease, transport.SelectorNode, i, transport.MsgOverhead) != nil {
				continue
			}
			site.FenceEpochsBelowRange(fence, ha.selCfg.Shard, ha.selCfg.Shards)
			_ = ha.repl.net.SendTo(transport.CatLease, i, transport.SelectorNode, transport.MsgOverhead)
			sent = true
		}
		unfenced[i] = !sent
	}
	return unfenced
}
