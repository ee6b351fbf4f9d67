package selector

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dynamast/internal/obs"
	"dynamast/internal/sitemgr"
	"dynamast/internal/storage"
	"dynamast/internal/transport"
	"dynamast/internal/wal"
)

func partitionBy100(ref storage.RowRef) uint64 { return ref.Key / 100 }

func ref(key uint64) storage.RowRef { return storage.RowRef{Table: "t", Key: key} }

// newCluster builds m replicating data sites under a one-shard group whose
// initial placement puts every partition at site 0.
func newCluster(t *testing.T, m int, w Weights) (*Group, []*sitemgr.Site) {
	t.Helper()
	g, sites := newShardedGroup(t, m, 1, 0, StatsConfig{HistorySize: 128})
	g.SetWeights(w)
	return g, sites
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Sites: make([]DataSite, 1)}); err == nil {
		t.Error("missing partitioner accepted")
	}
}

func TestRouteWriteSingleMasterFastPath(t *testing.T) {
	g, _ := newCluster(t, 2, YCSBWeights())
	r, err := g.front.RouteWrite(1, []storage.RowRef{ref(1), ref(50)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Site != 0 || r.Remastered {
		t.Fatalf("route = %+v, want site 0 without remastering", r)
	}
	m := g.Metrics()
	if m.WriteTxns != 1 || m.RemasterTxns != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestRouteWriteRemasters(t *testing.T) {
	g, sites := newCluster(t, 2, YCSBWeights())
	// Split partition 1's mastership to site 1 so that a write covering
	// partitions 0 and 1 requires remastering.
	rel, err := sites[0].Release([]uint64{1}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sites[1].Grant([]uint64{1}, rel, 0, 0); err != nil {
		t.Fatal(err)
	}
	g.Shard(0).RegisterPartitionEpoch(1, 1, 0)

	r, err := g.front.RouteWrite(1, []storage.RowRef{ref(1), ref(101)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Remastered {
		t.Fatal("no remastering despite split masters")
	}
	if g.MasterOf(0) != r.Site || g.MasterOf(1) != r.Site {
		t.Fatalf("masters not co-located: %d %d route %d",
			g.MasterOf(0), g.MasterOf(1), r.Site)
	}
	// The chosen site must actually master both partitions now.
	if !sites[r.Site].Masters(0) || !sites[r.Site].Masters(1) {
		t.Fatal("data site ownership does not match selector metadata")
	}
	// The transaction can begin at the chosen site at the returned vector.
	tx, err := sites[r.Site].Begin(r.MinVV, []storage.RowRef{ref(1), ref(101)})
	if err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	m := g.Metrics()
	if m.RemasterTxns != 1 || m.PartsMoved == 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestSubsequentWritesAmortizeRemastering(t *testing.T) {
	g, sites := newCluster(t, 2, YCSBWeights())
	rel, _ := sites[0].Release([]uint64{1}, 1, 0)
	sites[1].Grant([]uint64{1}, rel, 0, 0)
	g.Shard(0).RegisterPartitionEpoch(1, 1, 0)

	ws := []storage.RowRef{ref(1), ref(101)}
	if r, err := g.front.RouteWrite(1, ws, nil); err != nil || !r.Remastered {
		t.Fatalf("first route: %+v %v", r, err)
	}
	// The same write set routes without remastering now (the paper's T2).
	r, err := g.front.RouteWrite(1, ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Remastered {
		t.Fatal("second identical write set remastered again")
	}
	if got := g.Metrics().RemasterTxns; got != 1 {
		t.Fatalf("remaster count = %d", got)
	}
}

func TestBalanceSpreadsMastersAcrossSites(t *testing.T) {
	// With the balance-dominant YCSB weights and disjoint single-partition
	// write sets, remastering should distribute partitions across sites
	// rather than leaving everything at site 0. Routing alone cannot move
	// singleton write sets (they never require remastering), so drive the
	// split with two-partition write sets from distinct ranges.
	g, sites := newCluster(t, 4, YCSBWeights())
	// Pre-split: move half the partitions' mastership via the selector by
	// issuing writes pairing a "home" partition with a fresh one.
	for p := uint64(1); p < 32; p++ {
		rel, err := sites[g.MasterOf(p)].Release([]uint64{p}, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Re-grant to site 0 (no-op placement, just exercising the path).
		sites[0].Grant([]uint64{p}, rel, 0, 0)
	}
	for p := uint64(1); p < 32; p++ {
		g.Shard(0).RegisterPartitionEpoch(p, 0, 0)
	}
	// Now run paired writes (p, p+32): p+32 is fresh (also at site 0), so
	// the pair is single-sited... instead pair partitions currently at
	// different sites to force remastering choices. Seed a conflict: move
	// odd partitions to site 1 first.
	for p := uint64(1); p < 32; p += 2 {
		rel, _ := sites[0].Release([]uint64{p}, 1, 0)
		sites[1].Grant([]uint64{p}, rel, 0, 0)
		g.Shard(0).RegisterPartitionEpoch(p, 1, 0)
	}
	for p := uint64(0); p+1 < 32; p += 2 {
		ws := []storage.RowRef{ref(p * 100), ref((p + 1) * 100)}
		if _, err := g.front.RouteWrite(int(p), ws, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Count partitions per site; the balance term must have moved at
	// least some mastership off site 0.
	counts := make(map[int]int)
	for p := uint64(0); p < 32; p++ {
		counts[g.MasterOf(p)]++
	}
	if counts[0] == 32 {
		t.Fatalf("all partitions stayed at site 0: %v", counts)
	}
}

func TestIntraTxnCoLocationLearning(t *testing.T) {
	// With balance off and intra-txn weight on, repeated co-access of
	// partitions should pull them to one site and keep them there.
	g, sites := newCluster(t, 2, Weights{IntraTxn: 1})
	// Split partitions 0 and 1 across sites.
	rel, _ := sites[0].Release([]uint64{1}, 1, 0)
	sites[1].Grant([]uint64{1}, rel, 0, 0)
	g.Shard(0).RegisterPartitionEpoch(1, 1, 0)

	ws := []storage.RowRef{ref(10), ref(110)}
	for i := 0; i < 5; i++ {
		if _, err := g.front.RouteWrite(7, ws, nil); err != nil {
			t.Fatal(err)
		}
	}
	if g.MasterOf(0) != g.MasterOf(1) {
		t.Fatal("co-accessed partitions not co-located")
	}
	if got := g.Metrics().RemasterTxns; got != 1 {
		t.Fatalf("remastered %d times; co-location should stick", got)
	}
}

func TestRouteReadFreshSitesOnly(t *testing.T) {
	g, sites := newCluster(t, 3, YCSBWeights())
	// Commit one txn at site 0; a session that saw it must not be routed
	// to a site that has not applied it yet. Stop replication first so
	// sites 1,2 stay stale.
	tx, err := sites[0].Begin(nil, []storage.RowRef{ref(1)})
	if err != nil {
		t.Fatal(err)
	}
	tx.Write(ref(1), []byte("x"))
	cvv, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	// Immediately route reads; only site 0 is guaranteed fresh. Replicas
	// may catch up concurrently, which is also acceptable — assert the
	// chosen site satisfies the session.
	for i := 0; i < 20; i++ {
		r := g.front.RouteRead(1, cvv)
		if !sites[r.Site].SVV().DominatesEq(cvv) {
			// Permitted only if no site was fresh at decision time; then
			// the transaction blocks at the least-lagged site. Verify it
			// becomes fresh quickly (replication is running).
			deadline := time.Now().Add(2 * time.Second)
			for !sites[r.Site].SVV().DominatesEq(cvv) {
				if time.Now().After(deadline) {
					t.Fatal("routed to a site that never catches up")
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	if got := g.Metrics().ReadTxns; got != 20 {
		t.Fatalf("read txns = %d", got)
	}
}

func TestRouteReadSpreadsLoad(t *testing.T) {
	g, _ := newCluster(t, 4, YCSBWeights())
	counts := make(map[int]int)
	for i := 0; i < 400; i++ {
		r := g.front.RouteRead(1, nil)
		counts[r.Site]++
	}
	for site := 0; site < 4; site++ {
		if counts[site] < 50 {
			t.Fatalf("site %d starved: %v", site, counts)
		}
	}
}

func TestConcurrentRoutingNoDeadlock(t *testing.T) {
	g, _ := newCluster(t, 4, YCSBWeights())
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				a := uint64((c*7 + i) % 30)
				b := uint64((c*13 + i*3) % 30)
				ws := []storage.RowRef{ref(a * 100), ref(b * 100)}
				if _, err := g.front.RouteWrite(c, ws, nil); err != nil {
					panic(err)
				}
				g.front.RouteRead(c, nil)
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("routing deadlocked")
	}
	// Selector metadata and site ownership agree for every partition.
	m := g.Metrics()
	if m.WriteTxns != 8*40 {
		t.Fatalf("write txns = %d", m.WriteTxns)
	}
}

func TestMetadataMatchesSiteOwnership(t *testing.T) {
	g, sites := newCluster(t, 3, YCSBWeights())
	// Drive remastering, then audit agreement.
	for i := 0; i < 30; i++ {
		a := uint64(i % 10)
		b := uint64((i * 3) % 10)
		if a == b {
			continue
		}
		ws := []storage.RowRef{ref(a * 100), ref(b * 100)}
		if _, err := g.front.RouteWrite(i, ws, nil); err != nil {
			t.Fatal(err)
		}
	}
	for p := uint64(0); p < 10; p++ {
		owner := g.MasterOf(p)
		if !sites[owner].Masters(p) {
			t.Fatalf("partition %d: selector says %d, site disagrees", p, owner)
		}
		for i, s := range sites {
			if i != owner && s.Masters(p) {
				t.Fatalf("partition %d: duplicate master at %d (owner %d)", p, i, owner)
			}
		}
	}
}

func TestEmptyWriteSetRoute(t *testing.T) {
	g, _ := newCluster(t, 2, YCSBWeights())
	r, err := g.front.RouteWrite(1, nil, nil)
	if err != nil || r.Site != 0 || r.Remastered {
		t.Fatalf("empty write set route = %+v, %v", r, err)
	}
}

func TestMinVVDominatesGrantPoints(t *testing.T) {
	g, sites := newCluster(t, 3, YCSBWeights())
	// Put partitions 0,1,2 at sites 0,1,2 and commit at each so release
	// vectors are non-trivial.
	for p := uint64(1); p <= 2; p++ {
		rel, _ := sites[0].Release([]uint64{p}, int(p), 0)
		sites[p].Grant([]uint64{p}, rel, 0, 0)
		g.Shard(0).RegisterPartitionEpoch(p, int(p), 0)
	}
	for site := 0; site < 3; site++ {
		tx, err := sites[site].Begin(nil, []storage.RowRef{ref(uint64(site)*100 + 5)})
		if err != nil {
			t.Fatal(err)
		}
		tx.Write(ref(uint64(site)*100+5), []byte("x"))
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	r, err := g.front.RouteWrite(1, []storage.RowRef{ref(0), ref(100), ref(200)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Remastered {
		t.Fatal("expected remastering")
	}
	// MinVV must reflect the commits at every source site other than the
	// destination (their release points included those commits).
	for site := 0; site < 3; site++ {
		if site == r.Site {
			continue
		}
		if r.MinVV[site] < 1 {
			t.Fatalf("MinVV %v misses source site %d's commit", r.MinVV, site)
		}
	}
}

// coAccessProbs merges a raw CoAccess read into d2 -> P(d2|d1).
func coAccessProbs(st *Stats, d1 uint64, intra bool) map[uint64]float64 {
	out := make(map[uint64]float64)
	pairs, n := st.CoAccess(d1, intra, nil)
	for _, pr := range pairs {
		out[pr.D2] += pr.Count / n
	}
	return out
}

func TestStatsRecordAndCoAccess(t *testing.T) {
	st := NewStats(StatsConfig{HistorySize: 8})
	now := time.Now()
	st.RecordWrite(1, []uint64{1, 2}, now)
	st.RecordWrite(1, []uint64{1, 2}, now.Add(time.Millisecond))
	st.RecordWrite(1, []uint64{1, 3}, now.Add(2*time.Millisecond))

	probs := coAccessProbs(st, 1, true)
	if !almostEqual(probs[2], 2.0/3.0) {
		t.Fatalf("P(2|1) = %g, want 2/3", probs[2])
	}
	if !almostEqual(probs[3], 1.0/3.0) {
		t.Fatalf("P(3|1) = %g, want 1/3", probs[3])
	}
}

func TestStatsInterTxnWindow(t *testing.T) {
	st := NewStats(StatsConfig{HistorySize: 8, InterWindow: 10 * time.Millisecond})
	now := time.Now()
	st.RecordWrite(1, []uint64{1}, now)
	st.RecordWrite(1, []uint64{2}, now.Add(5*time.Millisecond)) // within Δt
	st.RecordWrite(1, []uint64{3}, now.Add(time.Second))        // outside Δt

	seen := coAccessProbs(st, 1, false)
	if seen[2] == 0 {
		t.Fatal("inter-txn pair within Δt not recorded")
	}
	if seen[3] != 0 {
		t.Fatal("inter-txn pair outside Δt recorded")
	}
	// Different clients never correlate.
	st2 := NewStats(StatsConfig{HistorySize: 8, InterWindow: time.Hour})
	st2.RecordWrite(1, []uint64{1}, now)
	st2.RecordWrite(2, []uint64{2}, now.Add(time.Millisecond))
	if len(coAccessProbs(st2, 1, false)) != 0 {
		t.Fatal("cross-client inter-txn correlation recorded")
	}
}

func TestStatsExpiryAdaptsToChange(t *testing.T) {
	st := NewStats(StatsConfig{HistorySize: 4})
	now := time.Now()
	// Old workload: 1 co-accessed with 2.
	for i := 0; i < 4; i++ {
		st.RecordWrite(1, []uint64{1, 2}, now)
	}
	// New workload: 1 co-accessed with 9; history wraps, expiring the old.
	for i := 0; i < 4; i++ {
		st.RecordWrite(1, []uint64{1, 9}, now)
	}
	probs := coAccessProbs(st, 1, true)
	if probs[2] != 0 {
		t.Fatalf("expired correlation still present: P(2|1)=%g", probs[2])
	}
	if probs[9] == 0 {
		t.Fatal("new correlation not learned")
	}
}

func TestStatsAccessDecay(t *testing.T) {
	st := NewStats(StatsConfig{HistorySize: 8, DecayThreshold: 10})
	now := time.Now()
	for i := 0; i < 20; i++ {
		st.RecordWrite(1, []uint64{1}, now)
	}
	if w := st.AccessWeight(1); w >= 20 {
		t.Fatalf("access weight %g never decayed", w)
	}
	if w := st.AccessWeight(1); w <= 0 {
		t.Fatalf("access weight %g fully lost", w)
	}
}

func TestStatsSampling(t *testing.T) {
	st := NewStats(StatsConfig{HistorySize: 100, SampleEvery: 10})
	now := time.Now()
	for i := 0; i < 100; i++ {
		st.RecordWrite(1, []uint64{1, 2}, now)
	}
	// Access counts see everything; co-access only sampled transactions.
	if w := st.AccessWeight(1); w != 100 {
		t.Fatalf("access weight = %g", w)
	}
	if len(coAccessProbs(st, 1, true)) == 0 {
		t.Fatal("sampled co-access empty")
	}
	occ := st.occurrencesOf(1)
	if occ != 10 {
		t.Fatalf("occurrences = %g, want 10 (sampled 1/10)", occ)
	}
}

func TestSetWeights(t *testing.T) {
	g, _ := newCluster(t, 2, YCSBWeights())
	w := Weights{Balance: 42}
	g.SetWeights(w)
	if g.Weights() != w {
		t.Fatal("SetWeights did not take effect")
	}
}

func TestCoAccessUnknownPartition(t *testing.T) {
	st := NewStats(StatsConfig{})
	if pairs, n := st.CoAccess(999, true, nil); len(pairs) != 0 || n != 0 {
		t.Fatalf("CoAccess on unseen partition returned %v, n=%g", pairs, n)
	}
}

// TestRemasterRollbackFencesPhantomGrant loses every response from the
// remaster destination back to the selector (a one-way partition): the
// destination EXECUTES the grant, but the selector observes only failures.
// The rollback must not re-grant the source under the chain's epoch — that
// would leave both sites owning, and both logs ending in a grant at the
// same epoch, so recovery would tie-break arbitrarily. Instead it fences
// the destination's phantom ownership with a fresh-epoch release before
// granting the source back.
func TestRemasterRollbackFencesPhantomGrant(t *testing.T) {
	const m = 2
	b := wal.NewBroker(m)
	net := transport.NewNetwork(transport.Instant())
	inj := transport.NewInjector(7)
	net.SetInjector(inj)
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
		s.SetMaster(0, i == 0)
		sites[i], dsites[i] = s, s
	}
	for _, s := range sites {
		s.Start()
	}
	sel, err := New(Config{
		Sites:       dsites,
		Partitioner: partitionBy100,
		Weights:     YCSBWeights(),
		Net:         net,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		b.Close()
		for _, s := range sites {
			s.Stop()
		}
	})
	info := sel.part(0) // places partition 0 at site 0

	// Everything the destination sends back to the selector is lost: its
	// grant executes, but neither the response nor any retry's arrives.
	inj.PartitionOneWay(1, transport.SelectorNode)

	info.mu.Lock()
	_, _, err = sel.runChain(&remasterChain{src: 0, ids: []uint64{0}, infos: []*partInfo{info}}, 1, obs.SpanContext{})
	info.mu.Unlock()
	if err == nil {
		t.Fatal("remaster with every destination response lost should fail")
	}

	// The rollback restored the source and fenced the destination's phantom
	// ownership: exactly one live master.
	if !sites[0].Masters(0) {
		t.Fatal("source does not master the partition after rollback")
	}
	if sites[1].Masters(0) {
		t.Fatal("destination kept phantom ownership after rollback — dual master")
	}
	if got := sel.MasterOf(0); got != 0 {
		t.Fatalf("selector maps partition to %d, want 0", got)
	}
	// Log-based recovery agrees: the rollback grant out-epochs the phantom
	// grant, so arbitration is unambiguous.
	if fold, err := sitemgr.FoldMastership(b, sitemgr.FoldBase{}); err != nil || fold.Owner[0] != 0 {
		t.Fatalf("recovered owner = %d (%v), want 0", fold.Owner[0], err)
	}
}

// With every site flagged down, a write set whose masters are distributed
// must fail fast with a retryable error rather than remastering into a
// known-dead destination.
func TestRouteWriteAllSitesDownFailsFast(t *testing.T) {
	g, sites := newCluster(t, 2, YCSBWeights())
	// Split the write set's masters so routing needs a remaster destination.
	g.Shard(0).RegisterPartitionEpoch(1, 1, 0)
	sites[0].SetMaster(1, false)
	sites[1].SetMaster(1, true)
	g.MarkDown(0)
	g.MarkDown(1)
	_, err := g.front.RouteWrite(0, []storage.RowRef{ref(50), ref(150)}, nil)
	if err == nil {
		t.Fatal("routing with every site down should fail")
	}
	if !errors.Is(err, sitemgr.ErrSiteDown) {
		t.Fatalf("err = %v, want ErrSiteDown (retryable)", err)
	}
}
