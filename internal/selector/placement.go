package selector

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Adaptive partial replication: each partition carries an explicit replica
// set instead of the implicit "every site replicates everything". The
// selector owns the authoritative membership metadata (routing consults it),
// a PlacementPolicy decides each partition's desired replica set from the
// learned workload statistics, and a PlacementController diffs desired
// against actual and drives replica adds/drops through a ReplicaMover (the
// core cluster, which performs the site-level bootstrap and purge). The
// shape follows DynamicCache/DynaMast's other control loops: observe decayed
// access statistics, decide per partition, converge with a bounded number of
// moves per tick.
//
// Invariant: a partition's master is always a member of its replica set.
// Remaster chains add the destination before granting (see runChain),
// failover re-grants only after the heir hosts, and every mastership
// metadata flip folds the master into the set.

// SiteID identifies a data site in placement decisions (an index into the
// cluster's site slice).
type SiteID = int

// PartitionStats is the per-partition workload summary handed to a
// PlacementPolicy.
type PartitionStats struct {
	// Partition is the partition id.
	Partition uint64
	// Master is the current master site.
	Master SiteID
	// Replicas is the current replica set (sorted; includes Master).
	Replicas []SiteID
	// Sites is the cluster's site count.
	Sites int
	// MinReplicas and MaxReplicas bound the sizes a decision may return;
	// the controller clamps decisions outside them.
	MinReplicas int
	MaxReplicas int
	// ReadWeight is the partition's decayed recent read access count.
	ReadWeight float64
	// WriteWeight is the partition's decayed recent write access count.
	WriteWeight float64
}

// PlacementPolicy decides a partition's desired replica set. Decide is
// called by the placement controller once per partition per tick with no
// selector locks held; implementations must be safe for concurrent use.
// Returned sets are normalized by the controller: deduplicated, clamped to
// valid site ids, forced to contain the master, and clamped to the
// configured size bounds.
type PlacementPolicy interface {
	Decide(stats PartitionStats) []SiteID
}

// AdaptivePolicy is the default placement policy: partitions earn replicas
// where reads concentrate and shed them as access decays. The desired size
// is MinReplicas plus one replica per ReadsPerReplica units of decayed read
// weight, clamped to MaxReplicas; membership keeps the master and the
// longest-standing current replicas for stability, filling new slots
// round-robin from the master.
type AdaptivePolicy struct {
	// ReadsPerReplica is the decayed read weight that justifies one replica
	// beyond the minimum (default 64).
	ReadsPerReplica float64
}

// Decide implements PlacementPolicy.
func (a AdaptivePolicy) Decide(st PartitionStats) []SiteID {
	per := a.ReadsPerReplica
	if per <= 0 {
		per = 64
	}
	size := st.MinReplicas + int(st.ReadWeight/per)
	if size > st.MaxReplicas {
		size = st.MaxReplicas
	}
	if size < st.MinReplicas {
		size = st.MinReplicas
	}
	out := make([]SiteID, 0, size)
	out = append(out, st.Master)
	for _, r := range st.Replicas {
		if len(out) >= size {
			break
		}
		if !containsSite(out, r) {
			out = append(out, r)
		}
	}
	for i := 1; len(out) < size && i < st.Sites; i++ {
		if cand := (st.Master + i) % st.Sites; !containsSite(out, cand) {
			out = append(out, cand)
		}
	}
	return out
}

// StaticFullReplication places every partition at every site — the
// pre-placement behavior as an explicit policy. Clusters constructed with it
// (and no replication-factor bounds) bypass partial replication entirely.
type StaticFullReplication struct{}

// Decide implements PlacementPolicy.
func (StaticFullReplication) Decide(st PartitionStats) []SiteID {
	out := make([]SiteID, st.Sites)
	for i := range out {
		out[i] = i
	}
	return out
}

func containsSite(s []SiteID, v SiteID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// DefaultReplicaSet builds the deterministic seed membership function shared
// by the selector's placement metadata and the sites' hosting maps: partition
// p starts replicated at its initial master and the rf-1 sites following it
// round-robin. Both layers computing membership from the same function is
// what lets a cold cluster route reads before any placement metadata exists.
func DefaultReplicaSet(initial func(part uint64) int, sites, rf int) func(part uint64) []int {
	if rf > sites {
		rf = sites
	}
	if rf < 1 {
		rf = 1
	}
	return func(part uint64) []int {
		base := initial(part) % sites
		set := make([]int, rf)
		for i := range set {
			set[i] = (base + i) % sites
		}
		sort.Ints(set)
		return set
	}
}

// PlacementDecision records one replica add or drop for the decision log
// surfaced by dynactl placement.
type PlacementDecision struct {
	Part   uint64    `json:"part"`
	Site   int       `json:"site"`
	Add    bool      `json:"add"` // false = drop
	Reason string    `json:"reason,omitempty"`
	At     time.Time `json:"at"`
}

// PlacementInfo is a point-in-time snapshot of the cluster's placement
// state (Cluster.Placement).
type PlacementInfo struct {
	// FullReplication reports the pre-placement mode: every site hosts
	// everything and the remaining fields (except Masters) are empty.
	FullReplication bool `json:"full_replication"`
	// MinReplicas and MaxReplicas are the configured replication-factor
	// bounds (zero under full replication).
	MinReplicas int `json:"min_replicas,omitempty"`
	MaxReplicas int `json:"max_replicas,omitempty"`
	// Partitions maps each tracked partition to its sorted replica set.
	Partitions map[uint64][]int `json:"partitions,omitempty"`
	// Masters maps each tracked partition to its current master site.
	Masters map[uint64]int `json:"masters"`
	// Residency is the per-site count of partitions with resident rows.
	Residency []int `json:"residency,omitempty"`
	// Adds and Drops count replica-set changes since startup.
	Adds  uint64 `json:"adds"`
	Drops uint64 `json:"drops"`
	// Decisions are the most recent add/drop decisions, oldest first.
	Decisions []PlacementDecision `json:"decisions,omitempty"`
	// Shards is the router-shard count when the control plane is sharded
	// (0 or 1 = single router).
	Shards int `json:"shards,omitempty"`
}

// placementDecisionRing bounds the retained decision log.
const placementDecisionRing = 64

// placementState is the selector's replica-set metadata for partial
// replication (nil on fully replicating selectors).
type placementState struct {
	mu     sync.RWMutex
	min    int
	max    int
	defSet func(part uint64) []int
	sets   map[uint64][]int // sorted; absent partitions use defSet

	decisions []PlacementDecision // ring, decHead is the next write slot
	decHead   int
	decLen    int

	adds  atomic.Uint64
	drops atomic.Uint64
}

func newPlacementState(min, max, sites int, defSet func(part uint64) []int) *placementState {
	if min < 1 {
		min = 1
	}
	if min > sites {
		min = sites
	}
	if max < min {
		max = sites
	}
	if max > sites {
		max = sites
	}
	return &placementState{
		min:    min,
		max:    max,
		defSet: defSet,
		sets:   make(map[uint64][]int),
	}
}

// setLocked returns part's replica set, materializing the seed set on first
// touch so later membership edits have a concrete slice to modify.
func (ps *placementState) setLocked(part uint64) []int {
	if set, ok := ps.sets[part]; ok {
		return set
	}
	set := ps.defSet(part)
	ps.sets[part] = set
	return set
}

func (ps *placementState) recordLocked(d PlacementDecision) {
	if len(ps.decisions) < placementDecisionRing {
		ps.decisions = append(ps.decisions, d)
		ps.decLen = len(ps.decisions)
		ps.decHead = ps.decLen % placementDecisionRing
		return
	}
	ps.decisions[ps.decHead] = d
	ps.decHead = (ps.decHead + 1) % placementDecisionRing
}

// PartialPlacement reports whether this selector tracks per-partition
// replica sets (partial replication mode).
func (s *Selector) PartialPlacement() bool { return s.placement != nil }

// ReplicationBounds returns the configured (min, max) replication factor;
// (0, 0) under full replication.
func (s *Selector) ReplicationBounds() (int, int) {
	ps := s.placement
	if ps == nil {
		return 0, 0
	}
	return ps.min, ps.max
}

// ReplicaSet returns part's current replica set (sorted). Under full
// replication every site is a member.
func (s *Selector) ReplicaSet(part uint64) []int {
	ps := s.placement
	if ps == nil {
		all := make([]int, s.m)
		for i := range all {
			all[i] = i
		}
		return all
	}
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	if set, ok := ps.sets[part]; ok {
		return append([]int(nil), set...)
	}
	return ps.defSet(part)
}

// HostsAt reports whether site is in part's replica set. Always true under
// full replication.
func (s *Selector) HostsAt(part uint64, site int) bool {
	ps := s.placement
	if ps == nil {
		return true
	}
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	return containsSite(ps.memberViewLocked(part), site)
}

// memberViewLocked returns part's membership without copying (callers hold
// ps.mu and must not retain the slice).
func (ps *placementState) memberViewLocked(part uint64) []int {
	if set, ok := ps.sets[part]; ok {
		return set
	}
	return ps.defSet(part)
}

// AddReplicaMeta records site as a member of part's replica set (metadata
// only — the site-level bootstrap is the mover's job, which calls this after
// the data flip). Returns false when site was already a member.
func (s *Selector) AddReplicaMeta(part uint64, site int, reason string) bool {
	ps := s.placement
	if ps == nil || site < 0 || site >= s.m {
		return false
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	set := ps.setLocked(part)
	if containsSite(set, site) {
		return false
	}
	set = append(set, site)
	sort.Ints(set)
	ps.sets[part] = set
	ps.adds.Add(1)
	ps.recordLocked(PlacementDecision{Part: part, Site: site, Add: true, Reason: reason, At: time.Now()})
	return true
}

// DropReplicaMeta removes site from part's replica set (metadata only; the
// mover purges the site afterwards — reads stop routing there the moment
// this returns). Refuses to shrink the set below the configured minimum or
// below one member, returning false.
func (s *Selector) DropReplicaMeta(part uint64, site int, reason string) bool {
	ps := s.placement
	if ps == nil {
		return false
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	set := ps.setLocked(part)
	if !containsSite(set, site) || len(set) <= 1 || len(set) <= ps.min {
		return false
	}
	out := make([]int, 0, len(set)-1)
	for _, m := range set {
		if m != site {
			out = append(out, m)
		}
	}
	ps.sets[part] = out
	ps.drops.Add(1)
	ps.recordLocked(PlacementDecision{Part: part, Site: site, Add: false, Reason: reason, At: time.Now()})
	return true
}

// DropSiteReplicas removes a dead site from every replica set (failover
// metadata cleanup; no site-level purge — the site is gone). Sets at or
// below the minimum still shed the dead member: a dead replica serves
// nothing, and the controller restores the factor on later ticks. Returns
// the partitions whose sets changed.
func (s *Selector) DropSiteReplicas(site int) []uint64 {
	ps := s.placement
	if ps == nil {
		return nil
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var changed []uint64
	for part, set := range ps.sets {
		if !containsSite(set, site) || len(set) <= 1 {
			continue
		}
		out := make([]int, 0, len(set)-1)
		for _, m := range set {
			if m != site {
				out = append(out, m)
			}
		}
		ps.sets[part] = out
		ps.drops.Add(1)
		ps.recordLocked(PlacementDecision{Part: part, Site: site, Add: false, Reason: "site failed", At: time.Now()})
		changed = append(changed, part)
	}
	return changed
}

// noteMaster folds a committed mastership flip into the replica-set
// metadata, preserving the master-is-a-member invariant. Metadata only: the
// mastership protocol has already materialized the data at the site (grants
// are preceded by replica adds under partial replication).
func (s *Selector) noteMaster(parts []uint64, site int) {
	ps := s.placement
	if ps == nil || site < 0 || site >= s.m {
		return
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, part := range parts {
		set := ps.setLocked(part)
		if containsSite(set, site) {
			continue
		}
		set = append(set, site)
		sort.Ints(set)
		ps.sets[part] = set
	}
}

// PlacementTable snapshots every explicitly tracked replica set (checkpoint
// manifests persist it; partitions still on the seed membership are omitted
// — recovery re-derives them from the same DefaultReplicaSet function).
func (s *Selector) PlacementTable() map[uint64][]int {
	ps := s.placement
	if ps == nil {
		return nil
	}
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	out := make(map[uint64][]int, len(ps.sets))
	for part, set := range ps.sets {
		out[part] = append([]int(nil), set...)
	}
	return out
}

// AdoptReplicaSets installs checkpointed replica sets (recovery). Metadata
// only; the recovery path separately folds the same membership into each
// site's hosting map.
func (s *Selector) AdoptReplicaSets(sets map[uint64][]int) {
	ps := s.placement
	if ps == nil {
		return
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for part, set := range sets {
		cp := append([]int(nil), set...)
		sort.Ints(cp)
		ps.sets[part] = cp
	}
}

// PlacementInfo assembles the selector's half of a placement snapshot (the
// cluster adds per-site residency).
func (s *Selector) PlacementInfo() PlacementInfo {
	masters, _ := s.PlacementSnapshot()
	ps := s.placement
	if ps == nil {
		return PlacementInfo{FullReplication: true, Masters: masters}
	}
	info := PlacementInfo{
		MinReplicas: ps.min,
		MaxReplicas: ps.max,
		Masters:     masters,
		Partitions:  make(map[uint64][]int, len(masters)),
		Adds:        ps.adds.Load(),
		Drops:       ps.drops.Load(),
	}
	ps.mu.RLock()
	for part := range masters {
		info.Partitions[part] = append([]int(nil), ps.memberViewLocked(part)...)
	}
	if ps.decLen > 0 {
		info.Decisions = make([]PlacementDecision, 0, ps.decLen)
		start := 0
		if ps.decLen == placementDecisionRing {
			start = ps.decHead
		}
		for i := 0; i < ps.decLen; i++ {
			info.Decisions = append(info.Decisions, ps.decisions[(start+i)%placementDecisionRing])
		}
	}
	ps.mu.RUnlock()
	return info
}

// SetReplicaEnsurer installs the callback routing uses to materialize a
// replica before depending on it: ensure(parts, site) must make site a
// hosting member of every partition in parts (idempotent). The core cluster
// wires its AddReplica here. Called during construction, before traffic.
func (s *Selector) SetReplicaEnsurer(ensure func(parts []uint64, site int) error) {
	s.ensureReplica = ensure
}

// ensureHostedAt makes site a hosting replica of every partition in parts,
// via the installed ensurer. Fast no-op when the metadata already shows
// membership (the common case: masters are members by invariant). Safe to
// call while holding partition routing locks — the ensurer takes only
// placement, hosting, and apply locks, never partition-map locks.
func (s *Selector) ensureHostedAt(parts []uint64, site int) error {
	ps := s.placement
	if ps == nil {
		return nil
	}
	var missing []uint64
	ps.mu.RLock()
	for _, part := range parts {
		if !containsSite(ps.memberViewLocked(part), site) {
			missing = append(missing, part)
		}
	}
	ps.mu.RUnlock()
	if len(missing) == 0 || s.ensureReplica == nil {
		return nil
	}
	return s.ensureReplica(missing, site)
}

// commonHosts returns the sites hosting every partition in parts (sorted).
func (s *Selector) commonHosts(parts []uint64) []int {
	ps := s.placement
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	out := append([]int(nil), ps.memberViewLocked(parts[0])...)
	for _, part := range parts[1:] {
		out = intersectSites(out, ps.memberViewLocked(part))
	}
	return out
}

// intersectSites keeps, in place and in order, the sites of a also in b.
func intersectSites(a, b []int) []int {
	kept := a[:0]
	for _, m := range a {
		if containsSite(b, m) {
			kept = append(kept, m)
		}
	}
	return kept
}

// ReplicaMover materializes placement decisions at the data sites: AddReplica
// bootstraps part onto site, DropReplica purges it. The core cluster
// implements it; both are idempotent and serialize internally.
type ReplicaMover interface {
	AddReplica(part uint64, site int) error
	DropReplica(part uint64, site int) error
}

// DefaultPlacementInterval is the placement controller's default tick.
const DefaultPlacementInterval = 100 * time.Millisecond

// defaultMaxMovesPerTick bounds replica churn per controller tick.
const defaultMaxMovesPerTick = 8

// PlacementController is the replica-placement control loop: every tick it
// snapshots the tracked partitions, asks the policy for each one's desired
// replica set, and converges actual toward desired through the mover with a
// bounded number of moves. sel is an accessor (not a pointer) so the HA
// tier's leader swaps carry over.
type PlacementController struct {
	sel      func() *Selector
	mover    ReplicaMover
	policy   PlacementPolicy
	interval time.Duration
	maxMoves int

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewPlacementController builds a controller; Start launches its loop.
func NewPlacementController(sel func() *Selector, mover ReplicaMover, policy PlacementPolicy, interval time.Duration) *PlacementController {
	if policy == nil {
		policy = AdaptivePolicy{}
	}
	if interval <= 0 {
		interval = DefaultPlacementInterval
	}
	return &PlacementController{
		sel:      sel,
		mover:    mover,
		policy:   policy,
		interval: interval,
		maxMoves: defaultMaxMovesPerTick,
		stop:     make(chan struct{}),
	}
}

// Start launches the control loop.
func (pc *PlacementController) Start() {
	pc.wg.Add(1)
	go func() {
		defer pc.wg.Done()
		t := time.NewTicker(pc.interval)
		defer t.Stop()
		for {
			select {
			case <-pc.stop:
				return
			case <-t.C:
				pc.Tick()
			}
		}
	}()
}

// Stop terminates the control loop and waits for the in-flight tick.
func (pc *PlacementController) Stop() {
	pc.stopOnce.Do(func() { close(pc.stop) })
	pc.wg.Wait()
}

// Tick runs one decide-and-converge pass, returning the replica adds and
// drops performed. The partition snapshot is taken before any placement
// locks; policy decisions run lock-free; mover calls serialize inside the
// mover.
func (pc *PlacementController) Tick() (adds, drops int) {
	s := pc.sel()
	if s == nil || s.placement == nil || s.Deposed() {
		return 0, 0
	}
	ps := s.placement
	masters, _ := s.PlacementSnapshot()
	moves := 0
	for part, master := range masters {
		if moves >= pc.maxMoves {
			break
		}
		replicas := s.ReplicaSet(part)
		desired := pc.policy.Decide(PartitionStats{
			Partition:   part,
			Master:      master,
			Replicas:    replicas,
			Sites:       s.m,
			MinReplicas: ps.min,
			MaxReplicas: ps.max,
			ReadWeight:  s.stats.ReadWeight(part),
			WriteWeight: s.stats.AccessWeight(part),
		})
		desired = normalizeSet(desired, master, replicas, ps.min, ps.max, s.m)
		for _, site := range desired {
			if moves >= pc.maxMoves {
				break
			}
			if containsSite(replicas, site) || s.SiteDown(site) {
				continue
			}
			if err := pc.mover.AddReplica(part, site); err == nil {
				adds++
				moves++
			}
		}
		for _, site := range replicas {
			if moves >= pc.maxMoves {
				break
			}
			if site == master || containsSite(desired, site) {
				continue
			}
			if err := pc.mover.DropReplica(part, site); err == nil {
				drops++
				moves++
			}
		}
	}
	return adds, drops
}

// normalizeSet sanitizes a policy decision: dedup, discard invalid site ids,
// force the master in, and clamp the size to [min, max] — padding from the
// current replicas (stability) then round-robin, trimming non-masters from
// the tail.
func normalizeSet(desired []SiteID, master SiteID, current []SiteID, min, max, sites int) []SiteID {
	out := make([]SiteID, 0, len(desired)+1)
	out = append(out, master)
	for _, site := range desired {
		if site >= 0 && site < sites && !containsSite(out, site) {
			out = append(out, site)
		}
	}
	for _, site := range current {
		if len(out) >= min {
			break
		}
		if !containsSite(out, site) {
			out = append(out, site)
		}
	}
	for i := 1; len(out) < min && i < sites; i++ {
		if cand := (master + i) % sites; !containsSite(out, cand) {
			out = append(out, cand)
		}
	}
	if len(out) > max {
		out = out[:max]
	}
	return out
}
