package systems

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dynamast/internal/storage"
	"dynamast/internal/transport"
)

func partitionBy100(ref storage.RowRef) uint64 { return ref.Key / 100 }

func ref(key uint64) storage.RowRef { return storage.RowRef{Table: "kv", Key: key} }

// rangePlacement spreads partitions round-robin (the oracle range
// partitioning for a uniform keyspace over m sites).
func rangePlacement(m int) func(uint64) int {
	return func(part uint64) int { return int(part) % m }
}

func baseCfg(m int) BaseConfig {
	return BaseConfig{
		Sites:       m,
		Partitioner: partitionBy100,
		Placement:   rangePlacement(m),
	}
}

// loadRows returns n one-byte rows, keys 0..n-1, that every baseline loads.
func loadRows(n uint64) []LoadRow {
	rows := make([]LoadRow, 0, n)
	for k := uint64(0); k < n; k++ {
		rows = append(rows, LoadRow{Ref: ref(k), Data: []byte{byte(k)}})
	}
	return rows
}

func eachBaseline(t *testing.T, m int, fn func(t *testing.T, sys System)) {
	t.Helper()
	builders := []struct {
		name  string
		build func() (System, error)
	}{
		{"single-master", func() (System, error) { return NewSingleMaster(baseCfg(m)) }},
		{"multi-master", func() (System, error) { return NewMultiMaster(baseCfg(m)) }},
		{"partition-store", func() (System, error) { return NewPartitionStore(baseCfg(m)) }},
		{"leap", func() (System, error) { return NewLEAP(baseCfg(m)) }},
	}
	for _, b := range builders {
		b := b
		t.Run(b.name, func(t *testing.T) {
			sys, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			sys.CreateTable("kv")
			sys.Load(loadRows(1000))
			fn(t, sys)
		})
	}
}

func TestBaselinesUpdateAndReadOwnWrite(t *testing.T) {
	eachBaseline(t, 3, func(t *testing.T, sys System) {
		cl := sys.NewClient(1)
		if err := cl.Update([]storage.RowRef{ref(5)}, func(tx Tx) error {
			return tx.Write(ref(5), []byte("updated"))
		}); err != nil {
			t.Fatal(err)
		}
		if err := cl.Read(nil, func(tx Tx) error {
			data, ok := tx.Read(ref(5))
			if !ok || string(data) != "updated" {
				return fmt.Errorf("read-own-write: %q %v", data, ok)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := sys.Stats().Commits; got != 1 {
			t.Fatalf("commits = %d", got)
		}
	})
}

func TestBaselinesCrossPartitionUpdate(t *testing.T) {
	eachBaseline(t, 3, func(t *testing.T, sys System) {
		cl := sys.NewClient(1)
		// Partitions 0,1,2 live at sites 0,1,2 under range placement — a
		// three-partition write set spans all three.
		ws := []storage.RowRef{ref(10), ref(110), ref(210)}
		if err := cl.Update(ws, func(tx Tx) error {
			for i, r := range ws {
				if err := tx.Write(r, []byte{byte(100 + i)}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := cl.Read(nil, func(tx Tx) error {
			for i, r := range ws {
				data, ok := tx.Read(r)
				if !ok || data[0] != byte(100+i) {
					return fmt.Errorf("key %d: %v %v", r.Key, data, ok)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}

		st := sys.Stats()
		switch sys.Name() {
		case "multi-master", "partition-store":
			if st.Distributed != 1 {
				t.Fatalf("distributed = %d, want 1", st.Distributed)
			}
		case "leap":
			if st.Remasters == 0 {
				t.Fatal("LEAP performed no localization")
			}
			if st.Distributed != 0 {
				t.Fatal("LEAP ran a distributed transaction")
			}
		case "single-master":
			if st.Distributed != 0 || st.Remasters != 0 {
				t.Fatalf("single-master stats = %+v", st)
			}
		}
	})
}

func TestBaselinesReadModifyWriteAtomicity(t *testing.T) {
	// Concurrent cross-partition increments must not lose updates in any
	// system: multi-master/partition-store hold 2PC locks through the
	// uncertain phase; LEAP serializes via ownership; single-master
	// serializes at the master.
	eachBaseline(t, 3, func(t *testing.T, sys System) {
		const clients, iters = 4, 10
		ws := []storage.RowRef{ref(10), ref(110)}
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl := sys.NewClient(c)
				for i := 0; i < iters; i++ {
					err := cl.Update(ws, func(tx Tx) error {
						for _, r := range ws {
							cur, ok := tx.Read(r)
							if !ok {
								return fmt.Errorf("missing counter %v", r)
							}
							n := byte(0)
							if len(cur) > 0 {
								n = cur[len(cur)-1]
							}
							if err := tx.Write(r, []byte{n + 1}); err != nil {
								return err
							}
						}
						return nil
					})
					if err != nil {
						errs <- err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		// Allow replication to quiesce, then audit the counters.
		time.Sleep(50 * time.Millisecond)
		cl := sys.NewClient(99)
		deadline := time.Now().Add(5 * time.Second)
		for {
			var vals [2]byte
			err := cl.Read(nil, func(tx Tx) error {
				for i, r := range ws {
					data, ok := tx.Read(r)
					if !ok {
						return fmt.Errorf("counter %v missing", r)
					}
					vals[i] = data[len(data)-1]
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			// Loaded counters start at byte(key): 10 and 110.
			want := [2]byte{10 + clients*iters, 110 + clients*iters}
			if vals == want {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("counters = %v, want %v (lost updates)", vals, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

func TestBaselinesScans(t *testing.T) {
	eachBaseline(t, 3, func(t *testing.T, sys System) {
		cl := sys.NewClient(1)
		if err := cl.Read(nil, func(tx Tx) error {
			// The range 150..450 spans partitions 1..4 (sites 1,2,0,1).
			rows := tx.Scan("kv", 150, 450)
			if len(rows) != 300 {
				return fmt.Errorf("scan returned %d rows, want 300", len(rows))
			}
			for i, kv := range rows {
				if kv.Key != 150+uint64(i) {
					return fmt.Errorf("row %d key %d out of order", i, kv.Key)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSingleMasterAllCommitsAtMaster(t *testing.T) {
	sys, err := NewSingleMaster(baseCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.CreateTable("kv")
	sys.Load(loadRows(1000))
	for c := 0; c < 3; c++ {
		cl := sys.NewClient(c)
		for i := 0; i < 5; i++ {
			k := uint64(c*300 + i)
			if err := cl.Update([]storage.RowRef{ref(k)}, func(tx Tx) error {
				return tx.Write(ref(k), []byte("x"))
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := sys.Stats()
	if st.PerSiteCommits[0] != 15 || st.PerSiteCommits[1] != 0 || st.PerSiteCommits[2] != 0 {
		t.Fatalf("per-site commits = %v", st.PerSiteCommits)
	}
}

func TestMultiMasterSingleSiteFastPath(t *testing.T) {
	sys, err := NewMultiMaster(baseCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.CreateTable("kv")
	sys.Load(loadRows(1000))
	cl := sys.NewClient(1)
	// Write set within partition 1 (site 1): local, no 2PC.
	if err := cl.Update([]storage.RowRef{ref(110), ref(120)}, func(tx Tx) error {
		return tx.Write(ref(110), []byte("x"))
	}); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.Distributed != 0 {
		t.Fatal("single-site write set ran 2PC")
	}
	if st.PerSiteCommits[1] != 1 {
		t.Fatalf("per-site commits = %v", st.PerSiteCommits)
	}
}

func TestPartitionStoreRemoteReadCharged(t *testing.T) {
	cfg := baseCfg(2)
	cfg.Network = transport.Config{OneWay: time.Millisecond}
	sys, err := NewPartitionStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.CreateTable("kv")
	sys.Load(loadRows(300))
	cl := sys.NewClient(1)
	// Update at partition 0 (site 0) that reads partition 1 (site 1).
	start := time.Now()
	err = cl.Update([]storage.RowRef{ref(10)}, func(tx Tx) error {
		if _, ok := tx.Read(ref(110)); !ok {
			return fmt.Errorf("remote read failed")
		}
		return tx.Write(ref(10), []byte("x"))
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1 txn RT + 1 remote-read RT >= 4ms.
	if d := time.Since(start); d < 4*time.Millisecond {
		t.Fatalf("latency %v too low for a remote read", d)
	}
}

func TestPartitionStoreDataOnlyAtOwner(t *testing.T) {
	sys, err := NewPartitionStore(baseCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.CreateTable("kv")
	sys.Load(loadRows(200))
	// Partition 0 -> site 0, partition 1 -> site 1; no replication.
	ps := sys.base
	if _, ok := ps.sites[1].ReadLocal(ref(10)); ok {
		t.Fatal("site 1 holds partition 0's data")
	}
	if _, ok := ps.sites[0].ReadLocal(ref(110)); ok {
		t.Fatal("site 0 holds partition 1's data")
	}
}

func TestReplicatedTablesLoadedEverywhere(t *testing.T) {
	cfg := baseCfg(2)
	cfg.ReplicatedTables = map[string]bool{"static": true}
	sys, err := NewPartitionStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.CreateTable("kv")
	sys.CreateTable("static")
	sys.Load([]LoadRow{
		{Ref: storage.RowRef{Table: "static", Key: 110}, Data: []byte("s")},
		{Ref: ref(110), Data: []byte("d")},
	})
	for i, s := range sys.base.sites {
		if _, _, ok := s.Store().Table("static").GetLatest(110); !ok {
			t.Fatalf("site %d missing replicated static row", i)
		}
	}
}

func TestLEAPLocalizationMovesOwnership(t *testing.T) {
	sys, err := NewLEAP(baseCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.CreateTable("kv")
	sys.Load(loadRows(300))

	cl := sys.NewClient(0)
	// The client's home pins to its first write's owner (partition 0 ->
	// site 0); partition 1 starts at site 1, so the update pulls it over.
	if err := cl.Update([]storage.RowRef{ref(10), ref(110)}, func(tx Tx) error {
		return tx.Write(ref(110), []byte("pulled"))
	}); err != nil {
		t.Fatal(err)
	}
	if got := sys.ownerOf(1); got != 0 {
		t.Fatalf("partition 1 owner = %d, want 0", got)
	}
	if sys.Stats().Remasters == 0 {
		t.Fatal("no localization recorded")
	}
	// The data physically moved.
	if data, ok := sys.base.sites[0].ReadLocal(ref(110)); !ok || string(data) != "pulled" {
		t.Fatalf("site 0 read after pull: %q %v", data, ok)
	}
}

func TestLEAPPingPong(t *testing.T) {
	// Two clients homed at different sites alternately touching the same
	// partition force repeated shipping — the ping-pong the paper blames
	// for LEAP's tail latency.
	sys, err := NewLEAP(baseCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.CreateTable("kv")
	sys.Load(loadRows(300))
	c0, c1 := sys.NewClient(0), sys.NewClient(1)
	// Pin the clients' homes to different sites via their first writes
	// (partition 0 -> site 0, partition 1 -> site 1).
	if err := c0.Update([]storage.RowRef{ref(10)}, func(tx Tx) error {
		return tx.Write(ref(10), []byte("pin"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Update([]storage.RowRef{ref(110)}, func(tx Tx) error {
		return tx.Write(ref(110), []byte("pin"))
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c0.Update([]storage.RowRef{ref(210)}, func(tx Tx) error {
			return tx.Write(ref(210), []byte{byte(2 * i)})
		}); err != nil {
			t.Fatal(err)
		}
		if err := c1.Update([]storage.RowRef{ref(210)}, func(tx Tx) error {
			cur, ok := tx.Read(ref(210))
			if !ok || cur[0] != byte(2*i) {
				return fmt.Errorf("iter %d: stale data after ship: %v %v", i, cur, ok)
			}
			return tx.Write(ref(210), []byte{byte(2*i + 1)})
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := sys.Stats().Remasters; got < 9 {
		t.Fatalf("localizations = %d, want >= 9 (ping-pong)", got)
	}
}

func TestLEAPScanLocalizes(t *testing.T) {
	sys, err := NewLEAP(baseCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.CreateTable("kv")
	sys.Load(loadRows(300))
	cl := sys.NewClient(0)
	if err := cl.Read(nil, func(tx Tx) error {
		rows := tx.Scan("kv", 100, 250) // partitions 1 (site 1) and 2 (site 0)
		if len(rows) != 150 {
			return fmt.Errorf("scan rows = %d", len(rows))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := sys.ownerOf(1); got != 0 {
		t.Fatalf("scan did not localize partition 1 (owner %d)", got)
	}
}

func TestUpdateFnErrorAbortsEverywhere(t *testing.T) {
	eachBaseline(t, 3, func(t *testing.T, sys System) {
		cl := sys.NewClient(1)
		boom := fmt.Errorf("boom")
		err := cl.Update([]storage.RowRef{ref(10), ref(110)}, func(tx Tx) error {
			tx.Write(ref(10), []byte("junk"))
			return boom
		})
		if err == nil {
			t.Fatal("error swallowed")
		}
		if err := cl.Read(nil, func(tx Tx) error {
			if data, _ := tx.Read(ref(10)); string(data) == "junk" {
				return fmt.Errorf("aborted write visible")
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// Locks released: the same write set succeeds afterwards.
		if err := cl.Update([]storage.RowRef{ref(10), ref(110)}, func(tx Tx) error {
			return tx.Write(ref(10), []byte("good"))
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestBaseConfigValidation(t *testing.T) {
	if _, err := NewMultiMaster(BaseConfig{Partitioner: partitionBy100}); err == nil {
		t.Error("zero sites accepted")
	}
	if _, err := NewLEAP(BaseConfig{Sites: 2}); err == nil {
		t.Error("missing partitioner accepted")
	}
}
