package core

import (
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

// Chaos test: a 4-site cluster runs a pair-invariant workload under injected
// wire faults, loses a site mid-run, and must (a) detect the failure over
// heartbeats and fail over within a bounded window, (b) keep every snapshot
// consistent (no torn pairs) and every session monotonic throughout, (c)
// abort in-flight transactions at the dead site retryably rather than hang,
// and (d) recover throughput: the workload completes and a post-failover
// burst commits promptly on the survivors.

// newChaosCluster builds a 4-site cluster with a deterministic fault
// injector (fixed seed) and a fast heartbeat failure detector. mutate, when
// non-nil, adjusts the config before the cluster starts (e.g. to add
// durability and background checkpointing).
func newChaosCluster(t *testing.T, mutate func(*Config)) (*Cluster, *transport.Injector, Config) {
	t.Helper()
	inj := transport.NewInjector(42)
	// Jitter on the transaction wire; drops and errors on the remaster
	// RPCs so release/grant chains exercise retry + rollback.
	inj.SetRules(
		transport.Rule{Category: transport.CatTxn, Kind: transport.FaultDelay, Prob: 0.2, Delay: 100 * time.Microsecond},
		transport.Rule{Category: transport.CatRemaster, Kind: transport.FaultDrop, Prob: 0.05},
		transport.Rule{Category: transport.CatRemaster, Kind: transport.FaultError, Prob: 0.05},
	)
	cfg := Config{
		Sites:       4,
		Partitioner: partitionBy100,
		Weights:     selector.YCSBWeights(),
		Faults:      inj,
		FailureDetection: FailureDetectionConfig{
			Interval: 2 * time.Millisecond,
			Misses:   3,
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.CreateTable("kv")
	rows := make([]systems.LoadRow, 0, 1000)
	for k := uint64(0); k < 1000; k++ {
		rows = append(rows, systems.LoadRow{Ref: ref(k), Data: []byte{byte(k)}})
	}
	c.Load(rows)
	return c, inj, cfg
}

func TestChaosKillSiteMidRun(t *testing.T) {
	c, inj, _ := newChaosCluster(t, nil)
	runChaosKillSiteMidRun(t, c, inj)
}

// The same seed-42 chaos run with a durable WAL and an aggressive background
// checkpointer racing the workload, the injected faults and the failover —
// then a crash-restart that must recover from a checkpoint and reproduce the
// exact pre-crash audit state.
func TestChaosKillSiteMidRunCheckpointed(t *testing.T) {
	dir := t.TempDir()
	c, inj, cfg := newChaosCluster(t, func(cfg *Config) {
		cfg.WALDir = dir
		cfg.CheckpointEvery = 10 * time.Millisecond
		cfg.CheckpointEveryRecords = 500
	})
	initial := map[uint64]int{}
	for p := uint64(0); p < 10; p++ {
		initial[p] = c.Group().MasterOf(p)
	}
	total := runChaosKillSiteMidRun(t, c, inj)
	c.Close()

	// Restart on the surviving files (no faults — the chaos already
	// happened) and re-audit: recovery must come from a checkpoint and land
	// on the identical pair state.
	cfg.Faults = nil
	cfg.FailureDetection = FailureDetectionConfig{}
	cfg.CheckpointEvery, cfg.CheckpointEveryRecords = 0, 0
	c2, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Close)
	c2.CreateTable("kv")
	if err := c2.Recover(initial); err != nil {
		t.Fatal(err)
	}
	st := c2.LastRecovery()
	if !st.UsedCheckpoint {
		t.Fatalf("restart did not use a checkpoint: %+v", st)
	}
	if err := c2.WaitQuiesced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := auditPairs(t, c2, chaosPairs); got != total {
		t.Fatalf("recovered counter mass %d, want %d", got, total)
	}
}

const chaosPairs = 8

// auditPairs checks every pair is intact (both halves equal in one
// snapshot) and returns the summed counter mass.
func auditPairs(t *testing.T, c *Cluster, pairs uint64) int {
	t.Helper()
	audit := c.Session(999)
	total := 0
	for p := uint64(0); p < pairs; p++ {
		err := audit.Read(func(tx systems.Tx) error {
			av, _ := tx.Read(ref(p))
			bv, _ := tx.Read(ref(p + 500))
			var an, bn byte
			if len(av) > 0 {
				an = av[0]
			}
			if len(bv) > 0 {
				bn = bv[0]
			}
			if an != bn {
				return fmt.Errorf("final pair %d torn: %d != %d", p, an, bn)
			}
			total += int(an)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return total
}

// runChaosKillSiteMidRun drives the chaos workload against c and returns
// the final audited counter mass.
func runChaosKillSiteMidRun(t *testing.T, c *Cluster, inj *transport.Injector) int {
	t.Helper()
	const (
		pairs   = chaosPairs
		workers = 6
		iters   = 40
		victim  = 2
	)

	// Seed every pair once so both halves are equal before readers start
	// (the loaded values differ by construction).
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

	// Writers: atomic pair increments. Session.Update retries transient
	// faults internally, so any surfaced error is a real failure.
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

	// Readers: both halves of a pair must be equal in every snapshot, site
	// failure or not.
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

	// Kill the victim once roughly a third of the workload has committed.
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
	c.KillSite(victim)

	// The heartbeat detector must notice and complete the failover within a
	// bounded window (interval 2ms x 3 misses, plus the re-grant itself).
	for c.Failovers() == 0 {
		if time.Since(killedAt) > 5*time.Second {
			stopAll()
			t.Fatal("failover did not complete within 5s of the kill")
		}
		time.Sleep(time.Millisecond)
	}
	failoverWindow := time.Since(killedAt)
	t.Logf("failover window: %v", failoverWindow)
	if !c.Group().SiteDown(victim) {
		t.Fatal("selector does not mark the killed site down")
	}

	// All writers must finish despite the failure — no hung transactions.
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
		t.Fatal("workload hung after site failure")
	}
	select {
	case v := <-violations:
		t.Fatalf("consistency violation: %s", v)
	default:
	}

	// Throughput recovery: a fresh burst of updates commits promptly on the
	// survivors.
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

	// Final audit on the survivors: every pair intact, counter mass matches
	// the committed increments (each commit adds exactly 1 to one pair).
	if err := c.WaitQuiesced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	commits := c.Stats().Commits
	if commits != pairs+workers*iters+50 {
		t.Fatalf("commits = %d, want %d", commits, pairs+workers*iters+50)
	}
	total := auditPairs(t, c, pairs)
	expected := 0 // seeds leave counter p at byte(p)+1
	for p := uint64(0); p < pairs; p++ {
		expected += int(byte(p)) + 1
	}
	// Every non-seed commit added 1 to some pair counter (mod 256 wrap is
	// impossible here: max counter value is 7+1+290 < 256... keep the bound
	// conservative instead of exact since increments scatter over pairs).
	if total < expected || total > expected+workers*iters+50 {
		t.Fatalf("counter mass %d outside [%d, %d]", total, expected, expected+workers*iters+50)
	}

	// The run actually exercised the fault machinery.
	if inj.InjectedTotal() == 0 {
		t.Fatal("no faults were injected")
	}
	if got := c.Failovers(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	return total
}

// TestChaosManualFailoverRecoversMastership drives Failover directly (no
// heartbeat) and checks the dead site's partitions land on survivors and
// writes to them succeed.
func TestChaosManualFailoverRecoversMastership(t *testing.T) {
	c := newTestCluster(t, 4)
	victim := 1
	owned := c.Group().MasteredBy(victim)
	if len(owned) == 0 {
		t.Skip("victim owns nothing under this scatter")
	}
	c.KillSite(victim)
	if err := c.Failover(victim); err != nil {
		t.Fatal(err)
	}
	// Idempotent: a second call (detector racing a manual one) is a no-op.
	if err := c.Failover(victim); err != nil {
		t.Fatal(err)
	}
	if got := c.Failovers(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	for _, p := range owned {
		if len(c.Group().MasteredBy(victim)) != 0 {
			t.Fatalf("partition %d still mastered by dead site", p)
		}
	}
	// Writes to the orphaned partitions must succeed on the new masters.
	sess := c.Session(7)
	for _, p := range owned {
		key := ref(p * 100)
		if err := sess.Update([]storage.RowRef{key}, func(tx systems.Tx) error {
			return tx.Write(key, []byte("moved"))
		}); err != nil {
			t.Fatalf("write to failed-over partition %d: %v", p, err)
		}
	}
}

// TestHeartbeatRetriesIncompleteFailover simulates a failover that died
// mid-way — the site is marked down but failedOver was never set (as when
// every grant leg failed transiently) — and checks the heartbeat loop picks
// the failover back up instead of skipping the down site forever.
func TestHeartbeatRetriesIncompleteFailover(t *testing.T) {
	c, err := NewCluster(Config{
		Sites:       4,
		Partitioner: partitionBy100,
		Weights:     selector.YCSBWeights(),
		FailureDetection: FailureDetectionConfig{
			Interval: 2 * time.Millisecond,
			Misses:   3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.CreateTable("kv")
	rows := make([]systems.LoadRow, 0, 1000)
	for k := uint64(0); k < 1000; k++ {
		rows = append(rows, systems.LoadRow{Ref: ref(k), Data: []byte{byte(k)}})
	}
	c.Load(rows)

	victim := 2
	if len(c.Group().MasteredBy(victim)) == 0 {
		t.Skip("victim owns nothing under this scatter")
	}
	c.KillSite(victim)
	c.Group().MarkDown(victim) // down, but no failover ran
	deadline := time.Now().Add(5 * time.Second)
	for c.Failovers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat loop never completed the failover of a down site")
		}
		time.Sleep(time.Millisecond)
	}
	if got := len(c.Group().MasteredBy(victim)); got != 0 {
		t.Fatalf("%d partitions still mastered at the dead site", got)
	}
	if !c.FailedOver(victim) {
		t.Fatal("failover not recorded complete")
	}
}

// TestFailoverFallsBackToLiveHeir kills a second site that the survivor
// scan still considers alive (its failure has not been detected yet); grant
// batches aimed at it must fall back to live survivors instead of failing
// the whole failover.
func TestFailoverFallsBackToLiveHeir(t *testing.T) {
	c := newTestCluster(t, 4)
	victim, unreliable := 2, 1
	owned := c.Group().MasteredBy(victim)
	if len(owned) == 0 {
		t.Skip("victim owns nothing under this scatter")
	}
	c.KillSite(unreliable) // dead but not yet marked down
	c.KillSite(victim)
	if err := c.Failover(victim); err != nil {
		t.Fatalf("failover with one dead heir should fall back: %v", err)
	}
	if !c.FailedOver(victim) {
		t.Fatal("failover did not complete")
	}
	for _, p := range owned {
		m := c.Group().MasterOf(p)
		if m == victim || m == unreliable {
			t.Fatalf("partition %d mastered at dead site %d", p, m)
		}
		if !c.Sites()[m].Masters(p) {
			t.Fatalf("partition %d: selector says %d but the site does not master it", p, m)
		}
	}
}
