package selector

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"dynamast/internal/obs"
	"dynamast/internal/sitemgr"
	"dynamast/internal/storage"
	"dynamast/internal/wal"
)

// newHATier builds m data sites over one broker, a master selector with
// `standbys` standbys under a one-shard group, and enables lease-based HA
// with the given TTL. It returns the group's front with the tier.
func newHATier(t *testing.T, m, standbys int, lease time.Duration, mutate ...func(*HAConfig)) (*Front, *Replicated, *HA, []*sitemgr.Site, *wal.Broker) {
	t.Helper()
	b := wal.NewBroker(m)
	sites := make([]*sitemgr.Site, m)
	dsites := make([]DataSite, m)
	for i := 0; i < m; i++ {
		s, err := sitemgr.New(sitemgr.Config{
			SiteID: i, Sites: m, Broker: b,
			Partitioner: partitionBy100,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Store().CreateTable("t")
		for p := uint64(0); p < 50; p++ {
			s.SetMaster(p, i == 0)
		}
		sites[i], dsites[i] = s, s
	}
	for _, s := range sites {
		s.Start()
	}
	cfg := Config{
		Sites:       dsites,
		Partitioner: partitionBy100,
		Weights:     YCSBWeights(),
		Stats:       StatsConfig{HistorySize: 128},
	}
	sel, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	repl := NewReplicated(sel, standbys, nil)
	g, err := NewGroup(GroupConfig{Shards: []*Replicated{repl}})
	if err != nil {
		t.Fatal(err)
	}
	haCfg := HAConfig{Lease: lease, Broker: b}
	for _, f := range mutate {
		f(&haCfg)
	}
	if haCfg.Obs == nil {
		haCfg.Obs = obs.NewRegistry() // waitPromotions reads it
	}
	ha, err := repl.EnableHA(cfg, haCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ha.Stop()
		b.Close()
		for _, s := range sites {
			s.Stop()
		}
	})
	return g.RouterFor(0), repl, ha, sites, b
}

// waitPromotions blocks until ha has completed at least n promotions, the
// count of its dynamast_selector_promotion_seconds histogram.
func waitPromotions(t *testing.T, ha *HA, n uint64) time.Duration {
	t.Helper()
	start := time.Now()
	deadline := start.Add(10 * time.Second)
	for promotions(ha) < n {
		if time.Now().After(deadline) {
			t.Fatalf("promotion %d did not complete within 10s (leader %d)", n, int(ha.node.Load()))
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(start)
}

// promotions reads the count of ha's dynamast_selector_promotion_seconds.
func promotions(ha *HA) uint64 {
	h, _ := ha.cfg.Obs.Snapshot().Get("dynamast_selector_promotion_seconds")
	return h.Count
}

func TestLeaseStoreMutualExclusion(t *testing.T) {
	ls := NewLeaseStore(50*time.Millisecond, nil)
	tok0, ok := ls.Acquire(0)
	if !ok || tok0 == 0 {
		t.Fatalf("initial acquire failed: token %d ok %v", tok0, ok)
	}
	if _, ok := ls.Acquire(1); ok {
		t.Fatal("second node acquired a held lease")
	}
	if !ls.Renew(0, tok0) {
		t.Fatal("holder could not renew with its token")
	}
	if ls.Renew(0, tok0+1) {
		t.Fatal("renew accepted a stale token")
	}
	if ls.Renew(1, tok0) {
		t.Fatal("renew accepted the wrong node")
	}
	if _, err := ls.AllocEpoch(1, tok0); !errors.Is(err, ErrNoLeader) {
		t.Fatalf("non-holder epoch allocation: err = %v, want ErrNoLeader", err)
	}
	e1, err := ls.AllocEpoch(0, tok0)
	if err != nil || e1 == 0 {
		t.Fatalf("holder epoch allocation: %d, %v", e1, err)
	}
	// Expiry: the holder stops renewing; another node takes over with a
	// higher token, after which the old token allocates nothing.
	time.Sleep(60 * time.Millisecond)
	if !ls.Expired() {
		t.Fatal("lease did not expire")
	}
	tok1, ok := ls.Acquire(1)
	if !ok || tok1 <= tok0 {
		t.Fatalf("takeover failed: token %d ok %v", tok1, ok)
	}
	if _, err := ls.AllocEpoch(0, tok0); !errors.Is(err, ErrNoLeader) {
		t.Fatalf("deposed holder allocated an epoch: %v", err)
	}
}

func TestHAPromotionOnLeaderKill(t *testing.T) {
	front, repl, ha, sites, _ := newHATier(t, 2, 2, 20*time.Millisecond)
	old := repl.Leader()

	// Route some writes through the leader so the placement is warm and a
	// remaster has happened (partitions 0 and 1 end up co-located).
	if _, err := front.RouteWrite(1, []storage.RowRef{ref(1), ref(101)}, nil); err != nil {
		t.Fatal(err)
	}

	killed := ha.KillLeader()
	if killed != 0 {
		t.Fatalf("killed node %d, want initial leader 0", killed)
	}
	// Until the swap the leader pointer names the deposed leader, and a
	// single-sited write still routes locally from its hints; after the
	// swap it routes from the rebuilt map. Either way it names the owner.
	inWindow := repl.Leader() == old
	if route, ok := front.LocalWrite(2, []storage.RowRef{ref(1), ref(101)}); !ok || !sites[route.Site].Masters(0) {
		t.Fatalf("local write after the kill = %+v/%v (in window: %v), want the sites' owner of partition 0", route, ok, inWindow)
	}
	window := waitPromotions(t, ha, 1)
	t.Logf("promotion completed %v after the kill", window)
	if n, _ := ha.cfg.Obs.Snapshot().Value("dynamast_selector_leader_changes_total"); n != 1 {
		t.Fatalf("leader changes = %g, want 1", n)
	}

	if int(ha.node.Load()) == 0 {
		t.Fatal("leadership did not move off the killed node")
	}
	neu := repl.Leader()
	if neu == old {
		t.Fatal("leader selector was not swapped")
	}
	if !old.Deposed() {
		t.Fatal("old leader not deposed")
	}
	if _, err := old.AllocEpoch(); !errors.Is(err, ErrNoLeader) {
		t.Fatalf("deposed leader allocated a remaster epoch: %v", err)
	}

	// The promoted leader's map must agree with the sites: every partition
	// the sites know has exactly one owner, and it is the selector's owner.
	for p := uint64(0); p < 3; p++ {
		owners := 0
		ownerSite := -1
		for i, s := range sites {
			if s.Masters(p) {
				owners++
				ownerSite = i
			}
		}
		if owners != 1 {
			t.Fatalf("partition %d has %d owners", p, owners)
		}
		if got := neu.MasterOf(p); got != ownerSite {
			t.Fatalf("partition %d: promoted selector says %d, sites say %d", p, got, ownerSite)
		}
	}

	// Routing resumes on the promoted leader.
	if _, err := front.RouteWrite(3, []storage.RowRef{ref(1), ref(101)}, nil); err != nil {
		t.Fatalf("post-promotion route: %v", err)
	}
}

// TestHAFencingPreventsDualOwnership is the dedicated fencing proof: an
// epoch allocated by the old leader before its crash (modelling an
// in-flight release/grant chain) must be rejected by every site after a
// standby promotes, so the zombie chain can never flip ownership — no
// interleaving yields two masters for one partition.
func TestHAFencingPreventsDualOwnership(t *testing.T) {
	_, repl, ha, sites, _ := newHATier(t, 2, 1, 20*time.Millisecond)
	old := repl.Leader()

	// The deposed leader allocated this epoch for a chain moving partition
	// 0 from site 0 to site 1, but crashed before the chain ran.
	zombie, err := old.AllocEpoch()
	if err != nil {
		t.Fatal(err)
	}

	ha.KillLeader()
	waitPromotions(t, ha, 1)

	// The promotion fence out-arbitrates the zombie epoch at every site:
	// neither leg of the dead chain can execute.
	if _, err := sites[0].Release([]uint64{0}, 1, zombie); !errors.Is(err, sitemgr.ErrStaleEpoch) {
		t.Fatalf("zombie release: err = %v, want ErrStaleEpoch", err)
	}
	if _, err := sites[1].Grant([]uint64{0}, nil, 0, zombie); !errors.Is(err, sitemgr.ErrStaleEpoch) {
		t.Fatalf("zombie grant: err = %v, want ErrStaleEpoch", err)
	}

	owners := 0
	for _, s := range sites {
		if s.Masters(0) {
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("partition 0 has %d owners after the zombie chain, want exactly 1", owners)
	}
	if !sites[0].Masters(0) {
		t.Fatal("ownership moved despite the fence")
	}
	if got := repl.Leader().MasterOf(0); got != 0 {
		t.Fatalf("promoted leader maps partition 0 to %d, want 0", got)
	}
}

// TestHADanglingReleaseRepair crashes the leader between a release and its
// grant: the releasing site has durably given up ownership into the void.
// The promotion must detect the dangling release in the WAL fold and
// re-grant the partition to the releaser under a fresh epoch, and the
// zombie grant must still be fenced out.
func TestHADanglingReleaseRepair(t *testing.T) {
	front, repl, ha, sites, _ := newHATier(t, 2, 1, 20*time.Millisecond)
	old := repl.Leader()

	epoch, err := old.AllocEpoch()
	if err != nil {
		t.Fatal(err)
	}
	relVV, err := sites[0].Release([]uint64{2}, 1, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if sites[0].Masters(2) {
		t.Fatal("release did not surrender ownership")
	}
	// Leader dies here — the grant leg never runs.
	ha.KillLeader()
	waitPromotions(t, ha, 1)

	// The zombie grant (retried by some stale RPC path) dies on the fence.
	if _, err := sites[1].Grant([]uint64{2}, relVV, 0, epoch); !errors.Is(err, sitemgr.ErrStaleEpoch) {
		t.Fatalf("zombie grant: err = %v, want ErrStaleEpoch", err)
	}

	// The repair re-granted the partition to the releasing site.
	if !sites[0].Masters(2) {
		t.Fatal("dangling release not repaired: releaser does not own the partition")
	}
	if sites[1].Masters(2) {
		t.Fatal("dual ownership after repair")
	}
	if got := repl.Leader().MasterOf(2); got != 0 {
		t.Fatalf("promoted leader maps partition 2 to %d, want 0", got)
	}
	// The repaired partition is writable through the promoted leader.
	if _, err := front.RouteWrite(5, []storage.RowRef{ref(200)}, nil); err != nil {
		t.Fatalf("route to repaired partition: %v", err)
	}
}

// TestHAStaleBaseRetriesNextTick truncates every log past its grants, then
// hands the first promotion attempt a base whose fold offsets are behind
// the truncation (two checkpoints committed between reading the base and
// folding). That attempt must fail rather than rebuild from a shortened
// suffix, count as a promotion failure, and the next tick must promote on
// the fresh base with the map the dead leader had.
func TestHAStaleBaseRetriesNextTick(t *testing.T) {
	var calls atomic.Int32
	var fresh sitemgr.FoldBase
	reg := obs.NewRegistry()
	_, repl, ha, sites, b := newHATier(t, 2, 1, 20*time.Millisecond, func(cfg *HAConfig) {
		cfg.Obs = reg
		cfg.Base = func() sitemgr.FoldBase {
			if calls.Add(1) == 1 {
				return sitemgr.FoldBase{Owner: fresh.Owner, Epoch: fresh.Epoch}
			}
			return fresh
		}
	})
	old := repl.Leader()
	// Move partition 1 to site 1 under a leader epoch: its grant is the only
	// record of the move, and truncation drops it.
	epoch, err := old.AllocEpoch()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := sites[0].Release([]uint64{1}, 1, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sites[1].Grant([]uint64{1}, rel, 0, epoch); err != nil {
		t.Fatal(err)
	}
	old.RegisterPartitionEpoch(1, 1, epoch)

	// The "checkpoint": the leader's placement and every log's end, then
	// truncation up to it once the refresh cursors drain.
	fresh.Owner, fresh.Epoch = old.PlacementSnapshot()
	fresh.From = make([]uint64, b.Sites())
	deadline := time.Now().Add(5 * time.Second)
	for i := range fresh.From {
		log := b.Log(i)
		fresh.From[i] = log.Len()
		for log.Base() < fresh.From[i] {
			if time.Now().After(deadline) {
				t.Fatalf("site %d log not truncated to %d (base %d)", i, fresh.From[i], log.Base())
			}
			if _, err := log.SetLowWater(fresh.From[i]); err != nil {
				t.Fatal(err)
			}
			time.Sleep(time.Millisecond)
		}
	}

	ha.KillLeader()
	waitPromotions(t, ha, 1)
	if n := calls.Load(); n < 2 {
		t.Fatalf("promotion read the base %d time(s), want a failed attempt and a retry", n)
	}
	if n := reg.Counter("dynamast_selector_promotion_failures_total").Value(); n != 1 {
		t.Fatalf("promotion failures = %d, want 1", n)
	}
	if fresh.Owner[1] != 1 {
		t.Fatalf("base places partition 1 at %d, want the moved-to site 1", fresh.Owner[1])
	}
	for p, site := range fresh.Owner {
		if got := repl.Leader().MasterOf(p); got != site {
			t.Fatalf("partition %d: promoted map says %d, the dead leader had %d", p, got, site)
		}
	}
}

// TestHASurvivesSecondFailover kills the promoted leader too: leadership
// must move again, and the tier keeps routing.
func TestHASurvivesSecondFailover(t *testing.T) {
	front, _, ha, _, _ := newHATier(t, 2, 2, 20*time.Millisecond)
	if _, err := front.RouteWrite(1, []storage.RowRef{ref(1), ref(101)}, nil); err != nil {
		t.Fatal(err)
	}
	ha.KillLeader()
	waitPromotions(t, ha, 1)
	first := int(ha.node.Load())
	ha.KillLeader()
	waitPromotions(t, ha, 2)
	second := int(ha.node.Load())
	if second == 0 || second == first {
		t.Fatalf("second promotion landed on %d (first %d, dead 0)", second, first)
	}
	if _, err := front.RouteWrite(9, []storage.RowRef{ref(1)}, nil); err != nil {
		t.Fatalf("routing after two failovers: %v", err)
	}
}
