package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dynamast/internal/selector"
	"dynamast/internal/storage"
	"dynamast/internal/systems"
	"dynamast/internal/transport"
)

// Selector-tier chaos: the same seed-42 fault mix as the site-kill chaos
// run, but the crash victim is the control plane itself — the selector
// holding the leadership lease dies mid-workload. A hot standby must
// promote within a bounded window (the lease TTL governs detection), the
// deposed leader must be fenced (its routing fails fast with the retryable
// ErrNoLeader, never acting on dead authority), every pair snapshot must
// stay consistent, commits must stay exactly-once, and no partition may
// end with more or fewer than one master.

const selectorChaosLease = 50 * time.Millisecond

func TestChaosSelectorLeaderKill(t *testing.T) {
	c, inj, _ := newChaosCluster(t, func(cfg *Config) {
		cfg.SelectorLease = selectorChaosLease
	})
	if c.SelectorHA() == nil {
		t.Fatal("SelectorLease did not enable HA")
	}
	if got := c.SelectorReplicas(); got != 2 {
		t.Fatalf("HA defaulted %d standbys, want 2", got)
	}
	oldLeader := c.Group().Shard(0)

	const (
		pairs   = chaosPairs
		workers = 6
		iters   = 40
	)

	// Seed every pair so both halves are equal before readers start.
	setup := c.Session(500)
	for p := uint64(0); p < pairs; p++ {
		a, b := ref(p), ref(p+500)
		if err := setup.Update([]storage.RowRef{a, b}, func(tx systems.Tx) error {
			av, _ := tx.Read(a)
			if err := tx.Write(a, []byte{av[0] + 1}); err != nil {
				return err
			}
			return tx.Write(b, []byte{av[0] + 1})
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitQuiesced(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var stopOnce sync.Once
	stopAll := func() { stopOnce.Do(func() { close(stop) }) }
	violations := make(chan string, 64)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			sess := c.Session(w)
			for i := 0; i < iters; i++ {
				p := uint64(rng.Intn(pairs))
				a, b := ref(p), ref(p+500)
				err := sess.Update([]storage.RowRef{a, b}, func(tx systems.Tx) error {
					av, _ := tx.Read(a)
					n := byte(0)
					if len(av) > 0 {
						n = av[0]
					}
					if err := tx.Write(a, []byte{n + 1}); err != nil {
						return err
					}
					return tx.Write(b, []byte{n + 1})
				})
				if err != nil {
					violations <- fmt.Sprintf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	// Readers must keep flowing off the replica tier with no leader up.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			sess := c.Session(100 + r)
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := uint64(rng.Intn(pairs))
				a, b := ref(p), ref(p+500)
				err := sess.Read(func(tx systems.Tx) error {
					av, _ := tx.Read(a)
					bv, _ := tx.Read(b)
					var an, bn byte
					if len(av) > 0 {
						an = av[0]
					}
					if len(bv) > 0 {
						bn = bv[0]
					}
					if an != bn {
						return fmt.Errorf("pair %d torn: %d != %d", p, an, bn)
					}
					return nil
				})
				if err != nil {
					violations <- fmt.Sprintf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}

	// Kill the selector leader once roughly a third of the workload is in.
	killTarget := uint64(pairs + workers*iters/3)
	killDeadline := time.Now().Add(30 * time.Second)
	for uint64(c.Stats().Commits) < killTarget {
		if time.Now().After(killDeadline) {
			stopAll()
			t.Fatal("workload never reached the kill threshold")
		}
		time.Sleep(time.Millisecond)
	}
	killedAt := time.Now()
	killed := c.KillSelector()
	if killed != 0 {
		stopAll()
		t.Fatalf("killed selector node %d, want initial leader 0", killed)
	}

	// A standby must promote within the lease-bounded window: the lease
	// expires at most TTL + TTL/4 after the last renewal, plus the
	// fence+fold+swap work — about 2x the TTL, with generous scheduler
	// slack for -race CI.
	for c.Group().Shard(0) == oldLeader { // a promotion swaps in a new leader
		if time.Since(killedAt) > 10*time.Second {
			stopAll()
			t.Fatal("standby never promoted after the leader kill")
		}
		time.Sleep(time.Millisecond)
	}
	promotionWindow := time.Since(killedAt)
	t.Logf("selector failover window: %v (lease %v)", promotionWindow, selectorChaosLease)
	if bound := 2*selectorChaosLease + 500*time.Millisecond; promotionWindow > bound {
		stopAll()
		t.Fatalf("promotion took %v, want < %v (~2x lease)", promotionWindow, bound)
	}

	// The deposed leader is fenced: no routes off dead authority, ever.
	if !oldLeader.Deposed() {
		stopAll()
		t.Fatal("killed leader not deposed")
	}
	if _, err := oldLeader.AllocEpoch(); !errors.Is(err, selector.ErrNoLeader) {
		stopAll()
		t.Fatalf("deposed leader allocated a remaster epoch: %v", err)
	}
	if c.Group().Shard(0) == oldLeader {
		stopAll()
		t.Fatal("cluster still exposes the deposed selector as leader")
	}

	// All writers finish despite the control-plane crash.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	writersDone := make(chan struct{})
	go func() {
		for c.Stats().Commits < workers*iters+pairs {
			select {
			case <-done:
				close(writersDone)
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
		stopAll()
		<-done
		close(writersDone)
	}()
	select {
	case v := <-violations:
		stopAll()
		t.Fatalf("consistency violation: %s", v)
	case <-writersDone:
	case <-time.After(60 * time.Second):
		t.Fatal("workload hung after the selector kill")
	}
	select {
	case v := <-violations:
		t.Fatalf("consistency violation: %s", v)
	default:
	}

	// The promoted leader must run full remaster chains: force cross-
	// partition co-locations through it (fresh lease-store epochs, delta
	// feed, site grants).
	cross := c.Session(901)
	for q := uint64(0); q < 10; q++ {
		a, b := ref(q*100), ref(((q+1)%10)*100)
		if err := cross.Update([]storage.RowRef{a, b}, func(tx systems.Tx) error {
			av, _ := tx.Read(a)
			if err := tx.Write(a, av); err != nil {
				return err
			}
			bv, _ := tx.Read(b)
			return tx.Write(b, bv)
		}); err != nil {
			t.Fatalf("post-promotion cross-partition update %d: %v", q, err)
		}
	}

	// Post-failover burst: throughput recovers promptly.
	burst := c.Session(900)
	burstStart := time.Now()
	for i := 0; i < 50; i++ {
		p := uint64(i % pairs)
		a, b := ref(p), ref(p+500)
		if err := burst.Update([]storage.RowRef{a, b}, func(tx systems.Tx) error {
			av, _ := tx.Read(a)
			if err := tx.Write(a, []byte{av[0] + 1}); err != nil {
				return err
			}
			return tx.Write(b, []byte{av[0] + 1})
		}); err != nil {
			t.Fatalf("post-failover update %d: %v", i, err)
		}
	}
	if d := time.Since(burstStart); d > 10*time.Second {
		t.Fatalf("post-failover burst took %v", d)
	}

	// Exactly-once: every committed increment counted once, nothing
	// duplicated across the leadership change.
	if err := c.WaitQuiesced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	wantCommits := pairs + workers*iters + 10 + 50
	if commits := c.Stats().Commits; commits != uint64(wantCommits) {
		t.Fatalf("commits = %d, want %d", commits, wantCommits)
	}
	auditPairs(t, c, pairs)

	// No dual (or absent) mastership anywhere: each partition has exactly
	// one owning site, and the promoted selector agrees with it.
	for p := uint64(0); p < 10; p++ {
		owners := 0
		ownerSite := -1
		for i, s := range c.Sites() {
			if s.Masters(p) {
				owners++
				ownerSite = i
			}
		}
		if owners != 1 {
			t.Fatalf("partition %d has %d owning sites, want exactly 1", p, owners)
		}
		if got := c.Group().MasterOf(p); got != ownerSite {
			t.Fatalf("partition %d: selector says %d, sites say %d", p, got, ownerSite)
		}
	}

	// The run exercised what it claims: injected faults fired, the lease
	// machinery carried control-plane traffic, leadership moved once.
	if inj.InjectedTotal() == 0 {
		t.Fatal("no faults were injected")
	}
	if c.Group().Shard(0) == oldLeader {
		t.Fatalf("leadership still at the killed node")
	}
	var leaseMsgs uint64
	for _, st := range c.Network().Stats() {
		if st.Category == transport.CatLease {
			leaseMsgs = st.Messages
		}
	}
	if leaseMsgs == 0 {
		t.Fatal("no lease-category traffic recorded")
	}
}

// TestReplicaResubmitAfterRemaster covers the ErrNotMaster resubmit path
// on a one-shard control plane with a standby, under delay faults on the
// routing wire: the front's cached location goes stale, the data site
// rejects the routed transaction, and the session's resubmit through the
// front commits exactly once and leaves the cache pointing at the new
// master (see staleCacheWriteRecovers).
func TestReplicaResubmitAfterRemaster(t *testing.T) {
	inj := transport.NewInjector(7)
	inj.SetRules(transport.Rule{Category: transport.CatRoute, Kind: transport.FaultDelay, Prob: 1, Delay: 50 * time.Microsecond})
	c := newShardedCluster(t, 2, 1, func(cfg *Config) {
		cfg.SelectorReplicas = 1
		cfg.Faults = inj
	})
	staleCacheWriteRecovers(t, c)
	if inj.InjectedTotal() == 0 {
		t.Fatal("no faults were injected on the routing wire")
	}
}

// TestFailoverRefreshesReplicaCaches is the regression test for failover
// leaving cached routes pointing at the dead site: the failover's
// re-registrations publish on the delta feed, so the front's cache already
// names every orphaned partition's heir and post-failover writes route
// correctly on the first attempt instead of bouncing off ErrNotMaster (or
// hanging on a site that can no longer answer at all).
func TestFailoverRefreshesReplicaCaches(t *testing.T) {
	c := newShardedCluster(t, 3, 1, func(cfg *Config) { cfg.SelectorReplicas = 1 })
	sess := c.Session(0)

	// Route every partition once so the cache holds its location.
	for p := uint64(0); p < 10; p++ {
		key := ref(p * 100)
		if err := sess.Update([]storage.RowRef{key}, func(tx systems.Tx) error {
			return tx.Write(key, []byte{1})
		}); err != nil {
			t.Fatal(err)
		}
	}
	victim := c.Group().MasterOf(0)
	victimParts := make([]uint64, 0, 4)
	for p := uint64(0); p < 10; p++ {
		if r, ok := probeCachedWrite(c, 0, ref(p*100)); ok && r.Site == victim {
			victimParts = append(victimParts, p)
		}
	}
	if len(victimParts) == 0 {
		t.Skip("victim owns nothing under this scatter")
	}

	c.KillSite(victim)
	if err := c.Failover(victim); err != nil {
		t.Fatal(err)
	}

	// The cache must already point every orphaned partition at its heir —
	// no stale entries at the dead site.
	for _, p := range victimParts {
		r, ok := probeCachedWrite(c, 0, ref(p*100))
		if !ok {
			t.Fatalf("cache has no live route for partition %d (still at the dead site?)", p)
		}
		if want := c.Group().MasterOf(p); r.Site != want {
			t.Fatalf("cache: partition %d at %d, selector says %d", p, r.Site, want)
		}
	}

	// First-attempt routing: the writes succeed from the cache without a
	// single stale-metadata resubmit.
	stale, hits := cacheSeries(c, cacheStaleWrites), cacheSeries(c, cacheRoutes, cacheWrites)
	for _, p := range victimParts {
		key := ref(p * 100)
		if err := sess.Update([]storage.RowRef{key}, func(tx systems.Tx) error {
			return tx.Write(key, []byte{2})
		}); err != nil {
			t.Fatalf("post-failover write to partition %d: %v", p, err)
		}
	}
	if got := cacheSeries(c, cacheStaleWrites) - stale; got != 0 {
		t.Fatalf("%d stale-metadata resubmits after failover, want 0 (the cache should be pre-refreshed)", got)
	}
	if got := cacheSeries(c, cacheRoutes, cacheWrites) - hits; got != uint64(len(victimParts)) {
		t.Fatalf("cache served %d of %d post-failover writes", got, len(victimParts))
	}
}
