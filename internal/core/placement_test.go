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

// Partial-replication tests: the placement API, the replica add/drop
// protocol under concurrent writes, the master-must-host invariant across
// remastering, and the pin that the default configuration remains exactly
// the paper's full-replication model.

// newPartialCluster builds an m-site cluster with replication bounds
// [min, max] and the placement controller effectively parked (hour-long
// interval), so tests drive replica moves deterministically.
func newPartialCluster(t *testing.T, m, min, max int) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{
		Sites:             m,
		Partitioner:       partitionBy100,
		Weights:           selector.YCSBWeights(),
		MinReplicas:       min,
		MaxReplicas:       max,
		PlacementInterval: time.Hour,
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
	return c
}

// TestDefaultIsFullReplication pins the compatibility contract: a cluster
// built without WithReplicationFactor / WithPlacementPolicy behaves exactly
// like the classic fully replicated DynaMast — every site hosts every
// partition, every write lands everywhere, and the placement API reports
// full replication.
func TestDefaultIsFullReplication(t *testing.T) {
	c := newTestCluster(t, 3)
	if c.Group().PartialPlacement() {
		t.Fatal("default cluster reports partial placement")
	}
	info := c.Placement()
	if !info.FullReplication {
		t.Fatal("default cluster's PlacementInfo is not full replication")
	}
	if len(info.Partitions) != 0 {
		t.Fatalf("full replication carries %d explicit replica sets", len(info.Partitions))
	}
	for _, s := range c.Sites() {
		for p := uint64(0); p < 10; p++ {
			if !s.Hosts(p) {
				t.Fatalf("site %d does not host partition %d under full replication", s.ID(), p)
			}
		}
		if set := c.Group().ReplicaSet(5); len(set) != 3 {
			t.Fatalf("ReplicaSet under full replication = %v, want all 3 sites", set)
		}
	}
	// A write is applied by every site's refresh stream.
	sess := c.Session(1)
	if err := sess.Update([]storage.RowRef{ref(7)}, func(tx systems.Tx) error {
		return tx.Write(ref(7), []byte("everywhere"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitQuiesced(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, s := range c.Sites() {
		if data, ok := s.ReadLocal(ref(7)); !ok || string(data) != "everywhere" {
			t.Fatalf("site %d: write not replicated: %q %v", s.ID(), data, ok)
		}
	}

	// StaticFullReplication as an explicit policy keeps the same fast path.
	c2, err := NewCluster(Config{
		Sites:           2,
		Partitioner:     partitionBy100,
		PlacementPolicy: selector.StaticFullReplication{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Group().PartialPlacement() {
		t.Fatal("StaticFullReplication enabled partial placement")
	}
}

// TestReplicationFactorOptionValidation pins the option-error contract.
func TestReplicationFactorOptionValidation(t *testing.T) {
	if _, err := NewWithOptions(WithSites(2), WithPartitioner(partitionBy100),
		WithReplicationFactor(0, 2)); err == nil {
		t.Error("min 0 accepted")
	}
	if _, err := NewWithOptions(WithSites(2), WithPartitioner(partitionBy100),
		WithReplicationFactor(3, 2)); err == nil {
		t.Error("max < min accepted")
	}
}

// TestPartialSeedMembership checks the deterministic seed placement: with
// bounds [2, m] on 4 sites every partition starts on exactly 2 sites, the
// master is one of them, and non-members hold none of the partition's rows.
func TestPartialSeedMembership(t *testing.T) {
	c := newPartialCluster(t, 4, 2, 4)
	sel := c.Group().Shard(0)
	if !sel.PartialPlacement() {
		t.Fatal("partial placement not enabled")
	}
	for p := uint64(0); p < 10; p++ {
		set := sel.ReplicaSet(p)
		if len(set) != 2 {
			t.Fatalf("partition %d replica set %v, want 2 members", p, set)
		}
		if !hostedIn(set, sel.MasterOf(p)) {
			t.Fatalf("partition %d master %d outside replica set %v", p, sel.MasterOf(p), set)
		}
		for i, s := range c.Sites() {
			member := hostedIn(set, i)
			if s.Hosts(p) != member {
				t.Fatalf("site %d Hosts(%d) = %v, membership says %v", i, p, s.Hosts(p), member)
			}
			if data, ok := s.ReadLocal(ref(p * 100)); ok != member {
				t.Fatalf("site %d holds row of partition %d: %v (member %v, data %q)", i, p, ok, member, data)
			}
		}
	}
	info := c.Placement()
	if info.FullReplication || info.MinReplicas != 2 {
		t.Fatalf("PlacementInfo = %+v, want partial with min 2", info)
	}
	total := 0
	for _, n := range info.Residency {
		total += n
	}
	if total != 2*10 {
		t.Fatalf("total residency %d, want %d (10 partitions x 2 replicas)", total, 20)
	}
}

// TestRemasterToNonReplica checks add-then-grant: a multi-partition write
// whose destination site is outside one partition's replica set must first
// make the destination a hosting replica, so the master-is-a-member
// invariant holds after the remaster chain completes.
func TestRemasterToNonReplica(t *testing.T) {
	c := newPartialCluster(t, 4, 1, 4)
	sel := c.Group().Shard(0)

	// Find two partitions with different (singleton) replica sets.
	p1 := uint64(0)
	p2 := uint64(0)
	for p := uint64(1); p < 10; p++ {
		if sel.MasterOf(p) != sel.MasterOf(p1) {
			p2 = p
			break
		}
	}
	if p2 == 0 {
		t.Fatal("all partitions mastered at one site; cannot exercise remastering")
	}

	sess := c.Session(1)
	ws := []storage.RowRef{ref(p1 * 100), ref(p2 * 100)}
	if err := sess.Update(ws, func(tx systems.Tx) error {
		for _, r := range ws {
			if err := tx.Write(r, []byte("co")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	m1, m2 := sel.MasterOf(p1), sel.MasterOf(p2)
	if m1 != m2 {
		t.Fatalf("multi-partition write left masters apart: %d vs %d", m1, m2)
	}
	for _, p := range []uint64{p1, p2} {
		if !hostedIn(sel.ReplicaSet(p), m1) {
			t.Fatalf("partition %d master %d outside replica set %v after remaster", p, m1, sel.ReplicaSet(p))
		}
		if !c.Sites()[m1].Hosts(p) {
			t.Fatalf("partition %d master %d does not host it after remaster", p, m1)
		}
		if !c.Sites()[m1].Masters(p) {
			t.Fatalf("partition %d: site-level mastership missing at %d", p, m1)
		}
	}
}

// TestReplicaAddBootstrapRace adds a replica while writers hammer the
// partition: the flip-then-bootstrap protocol must leave the new replica
// with exactly the same rows as the master — no write lost in the gap
// between the snapshot cut and the filtered applier stream, none doubly
// installed.
func TestReplicaAddBootstrapRace(t *testing.T) {
	c := newPartialCluster(t, 3, 1, 3)
	sel := c.Group().Shard(0)
	const part = uint64(0)
	master := sel.MasterOf(part)
	tgt := -1
	for i := range c.Sites() {
		if i != master && !c.Sites()[i].Hosts(part) {
			tgt = i
			break
		}
	}
	if tgt < 0 {
		t.Fatal("no non-hosting target site")
	}

	const writers = 4
	const iters = 50
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := c.Session(w)
			for i := 0; i < iters; i++ {
				k := uint64(w*20 + i%20) // keys 0..79, all partition 0
				if err := sess.Update([]storage.RowRef{ref(k)}, func(tx systems.Tx) error {
					return tx.Write(ref(k), []byte{byte(w), byte(i)})
				}); err != nil {
					errCh <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	// Let some writes land, then add the replica mid-stream.
	time.Sleep(2 * time.Millisecond)
	if err := c.AddReplica(part, tgt); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if err := c.WaitQuiesced(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	if !c.Sites()[tgt].Hosts(part) || !hostedIn(sel.ReplicaSet(part), tgt) {
		t.Fatal("target site not a replica after AddReplica")
	}
	// Every row of the partition must read identically at the master and
	// the bootstrapped replica.
	for k := uint64(0); k < 100; k++ {
		want, wok := c.Sites()[master].ReadLocal(ref(k))
		got, gok := c.Sites()[tgt].ReadLocal(ref(k))
		if wok != gok || string(want) != string(got) {
			t.Fatalf("key %d diverged after bootstrap: master %q/%v, replica %q/%v", k, want, wok, got, gok)
		}
	}

	// And the replica can be dropped again (not the master), purging rows.
	other := 3 - master - tgt
	_ = other
	if err := c.DropReplica(part, tgt); err != nil {
		t.Fatal(err)
	}
	if c.Sites()[tgt].Hosts(part) {
		t.Fatal("target still hosts the partition after DropReplica")
	}
	if _, ok := c.Sites()[tgt].ReadLocal(ref(0)); ok {
		t.Fatal("dropped replica still serves the partition's rows")
	}
	if err := c.DropReplica(part, master); err == nil {
		t.Fatal("dropping the master's replica was allowed")
	}
}

// TestPartialReplicationByteSavings is the headline experiment for adaptive
// partial replication: a 64-partition, 8-site cluster
// under a Zipfian-skewed workload, replication bounds [2, 3] vs classic
// full replication. Partial replication must cut replication bytes per
// committed transaction by at least half and keep the mean per-site
// resident-partition count at or below half the partition count.
func TestPartialReplicationByteSavings(t *testing.T) {
	const sites, parts = 8, 64
	const clients, updates = 16, 40
	run := func(opts ...Option) (bytesPerTxn, meanResident float64, commits int) {
		base := []Option{Config{
			Sites:       sites,
			Partitioner: partitionBy100,
			Weights:     selector.YCSBWeights(),
		}}
		c, err := NewWithOptions(append(base, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.CreateTable("kv")
		rows := make([]systems.LoadRow, 0, parts*4)
		for p := uint64(0); p < parts; p++ {
			for k := uint64(0); k < 4; k++ {
				rows = append(rows, systems.LoadRow{Ref: ref(p*100 + k), Data: []byte{byte(p)}})
			}
		}
		c.Load(rows)

		var wg sync.WaitGroup
		for cl := 0; cl < clients; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(cl)))
				zipf := rand.NewZipf(rng, 1.2, 1, parts-1)
				sess := c.Session(cl)
				for i := 0; i < updates; i++ {
					p := zipf.Uint64()
					key := ref(p*100 + uint64(cl%4))
					// YCSB-sized payload (the paper's workload writes 1KB
					// rows); epoch envelopes are per-frame, so realistic
					// payloads are what partial replication actually filters.
					val := make([]byte, 256)
					val[0], val[1] = byte(cl), byte(i)
					if err := sess.Update([]storage.RowRef{key}, func(tx systems.Tx) error {
						return tx.Write(key, val)
					}); err != nil {
						t.Error(err)
						return
					}
					// Skewed reads feed the adaptive policy's read weights.
					hint := []storage.RowRef{key}
					if err := sess.ReadHinted(hint, func(tx systems.Tx) error {
						tx.Read(key)
						return nil
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}(cl)
		}
		wg.Wait()
		if err := c.WaitQuiesced(15 * time.Second); err != nil {
			t.Fatal(err)
		}
		var bytes uint64
		for _, st := range c.Network().Stats() {
			if st.Category == transport.CatReplication {
				bytes = st.Bytes
			}
		}
		total := 0
		for _, s := range c.Sites() {
			total += s.ResidentPartitions()
		}
		commits = int(c.Stats().Commits)
		return float64(bytes) / float64(commits), float64(total) / float64(sites), commits
	}

	fullPer, fullRes, fullCommits := run()
	partPer, partRes, partCommits := run(WithReplicationFactor(2, 3))
	t.Logf("replication bytes/txn: full %.1f (%d commits), partial %.1f (%d commits) — %.1f%% saved",
		fullPer, fullCommits, partPer, partCommits, 100*(1-partPer/fullPer))
	t.Logf("mean resident partitions/site: full %.1f, partial %.1f (of %d)", fullRes, partRes, parts)
	if partPer > 0.5*fullPer {
		t.Errorf("partial replication saves only %.1f%% replication bytes/txn, want >= 50%%",
			100*(1-partPer/fullPer))
	}
	if partRes > 0.5*parts {
		t.Errorf("mean resident partitions %.1f > half the partition count (%d)", partRes, parts/2)
	}
	if fullRes < float64(parts)-0.5 {
		t.Errorf("full replication baseline should be fully resident, got %.1f", fullRes)
	}
}

// TestChaosPartialReplicationSeed42 is the seed-42 chaos run (injected wire
// faults, site kill mid-run, heartbeat failover) on a cluster with
// replication bounds [2, 3] and the placement controller live: the same
// consistency, liveness and audit invariants must hold while replicas
// bootstrap, drop, and fail over with partitions hosted at only a subset of
// sites.
func TestChaosPartialReplicationSeed42(t *testing.T) {
	c, inj, _ := newChaosCluster(t, func(cfg *Config) {
		cfg.MinReplicas = 2
		cfg.MaxReplicas = 3
	})
	runChaosKillSiteMidRun(t, c, inj)
	// The run must actually have operated in partial mode.
	if !c.Group().PartialPlacement() {
		t.Fatal("chaos cluster was not in partial mode")
	}
	info := c.Placement()
	if info.FullReplication {
		t.Fatal("placement reports full replication")
	}
}
