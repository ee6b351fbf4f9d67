package bench

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dynamast/internal/storage"
	"dynamast/internal/systems"
	"dynamast/internal/transport"
)

func partitionBy100(ref storage.RowRef) uint64 { return ref.Key / 100 }

func ref(key uint64) storage.RowRef { return storage.RowRef{Table: "kv", Key: key} }

// rangePlacement spreads partitions round-robin (the oracle range
// partitioning for a uniform keyspace over m sites).
func rangePlacement(m int) func(uint64) int {
	return func(part uint64) int { return int(part) % m }
}

// newTestBaseline builds kind on m sites over partitionBy100 and the range
// placement, with a free network unless env says otherwise.
func newTestBaseline(t *testing.T, kind SystemKind, env Env, staticTables map[string]bool) systems.System {
	t.Helper()
	sys, err := newBaseline(kind, env, partitionBy100, rangePlacement(env.Sites), staticTables)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

// loadedBaseline is newTestBaseline with table "kv" holding rows 0..n-1.
func loadedBaseline(t *testing.T, kind SystemKind, m int, n uint64) systems.System {
	t.Helper()
	sys := newTestBaseline(t, kind, Env{Sites: m}, nil)
	sys.CreateTable("kv")
	sys.Load(loadRows(n))
	return sys
}

// loadRows returns n one-byte rows, keys 0..n-1, that every baseline loads.
func loadRows(n uint64) []systems.LoadRow {
	rows := make([]systems.LoadRow, 0, n)
	for k := uint64(0); k < n; k++ {
		rows = append(rows, systems.LoadRow{Ref: ref(k), Data: []byte{byte(k)}})
	}
	return rows
}

func eachBaseline(t *testing.T, m int, fn func(t *testing.T, sys systems.System)) {
	t.Helper()
	for _, kind := range []SystemKind{KindSingleMaster, KindMultiMaster, KindPartitionStore, KindLEAP} {
		t.Run(string(kind), func(t *testing.T) {
			fn(t, loadedBaseline(t, kind, m, 1000))
		})
	}
}

func TestBaselinesUpdateAndReadOwnWrite(t *testing.T) {
	eachBaseline(t, 3, func(t *testing.T, sys systems.System) {
		cl := sys.NewClient(1)
		if err := cl.Update([]storage.RowRef{ref(5)}, func(tx systems.Tx) error {
			return tx.Write(ref(5), []byte("updated"))
		}); err != nil {
			t.Fatal(err)
		}
		if err := cl.Read(nil, func(tx systems.Tx) error {
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
	eachBaseline(t, 3, func(t *testing.T, sys systems.System) {
		cl := sys.NewClient(1)
		// Partitions 0,1,2 live at sites 0,1,2 under range placement — a
		// three-partition write set spans all three.
		ws := []storage.RowRef{ref(10), ref(110), ref(210)}
		if err := cl.Update(ws, func(tx systems.Tx) error {
			for i, r := range ws {
				if err := tx.Write(r, []byte{byte(100 + i)}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := cl.Read(nil, func(tx systems.Tx) error {
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
	eachBaseline(t, 3, func(t *testing.T, sys systems.System) {
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
					err := cl.Update(ws, func(tx systems.Tx) error {
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
			err := cl.Read(nil, func(tx systems.Tx) error {
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
	eachBaseline(t, 3, func(t *testing.T, sys systems.System) {
		cl := sys.NewClient(1)
		if err := cl.Read(nil, func(tx systems.Tx) error {
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
	sys := loadedBaseline(t, KindSingleMaster, 3, 1000)
	for c := 0; c < 3; c++ {
		cl := sys.NewClient(c)
		for i := 0; i < 5; i++ {
			k := uint64(c*300 + i)
			if err := cl.Update([]storage.RowRef{ref(k)}, func(tx systems.Tx) error {
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
	sys := loadedBaseline(t, KindMultiMaster, 3, 1000)
	cl := sys.NewClient(1)
	// Write set within partition 1 (site 1): local, no 2PC.
	if err := cl.Update([]storage.RowRef{ref(110), ref(120)}, func(tx systems.Tx) error {
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
	sys := newTestBaseline(t, KindPartitionStore, Env{Sites: 2, Network: transport.Config{OneWay: time.Millisecond}}, nil)
	sys.CreateTable("kv")
	sys.Load(loadRows(300))
	cl := sys.NewClient(1)
	// Update at partition 0 (site 0) that reads partition 1 (site 1).
	start := time.Now()
	err := cl.Update([]storage.RowRef{ref(10)}, func(tx systems.Tx) error {
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
	sys := loadedBaseline(t, KindPartitionStore, 2, 200)
	// Partition 0 -> site 0, partition 1 -> site 1; no replication.
	ps := sys.(*partitionStore)
	if _, ok := ps.sites[1].ReadLocal(ref(10)); ok {
		t.Fatal("site 1 holds partition 0's data")
	}
	if _, ok := ps.sites[0].ReadLocal(ref(110)); ok {
		t.Fatal("site 0 holds partition 1's data")
	}
}

func TestReplicatedTablesLoadedEverywhere(t *testing.T) {
	sys := newTestBaseline(t, KindPartitionStore, Env{Sites: 2}, map[string]bool{"static": true})
	sys.CreateTable("kv")
	sys.CreateTable("static")
	sys.Load([]systems.LoadRow{
		{Ref: storage.RowRef{Table: "static", Key: 110}, Data: []byte("s")},
		{Ref: ref(110), Data: []byte("d")},
	})
	for i, s := range sys.(*partitionStore).sites {
		if _, ok := s.ReadLocal(storage.RowRef{Table: "static", Key: 110}); !ok {
			t.Fatalf("site %d missing replicated static row", i)
		}
	}
}

// checkOneHome asserts that exactly one site hosts and masters part, and
// that the selector's map and the cluster's placement agree with it; it
// returns that site.
func checkOneHome(t *testing.T, sys *leap, part uint64) int {
	t.Helper()
	home := -1
	for i, s := range sys.sites {
		if s.Hosts(part) != s.Masters(part) {
			t.Fatalf("partition %d at site %d: hosts %v, masters %v", part, i, s.Hosts(part), s.Masters(part))
		}
		if s.Hosts(part) {
			if home >= 0 {
				t.Fatalf("partition %d hosted at sites %d and %d", part, home, i)
			}
			home = i
		}
	}
	if home < 0 {
		t.Fatalf("partition %d hosted nowhere", part)
	}
	if got := sys.c.Group().MasterOf(part); got != home {
		t.Fatalf("partition %d: selector master %d, hosted at %d", part, got, home)
	}
	pl := sys.c.Placement()
	if got := pl.Masters[part]; got != home {
		t.Fatalf("partition %d: placement master %d, hosted at %d", part, got, home)
	}
	if set := pl.Partitions[part]; len(set) != 1 || set[0] != home {
		t.Fatalf("partition %d: placement replica set %v, hosted at %d", part, set, home)
	}
	return home
}

func TestLEAPLocalizationMovesOwnership(t *testing.T) {
	sys := loadedBaseline(t, KindLEAP, 2, 300).(*leap)
	cl := sys.NewClient(0)
	// The client's home pins to its first write's owner (partition 0 ->
	// site 0); partition 1 starts at site 1, so the update pulls it over.
	if err := cl.Update([]storage.RowRef{ref(10), ref(110)}, func(tx systems.Tx) error {
		return tx.Write(ref(110), []byte("pulled"))
	}); err != nil {
		t.Fatal(err)
	}
	if got := checkOneHome(t, sys, 1); got != 0 {
		t.Fatalf("partition 1 at site %d, want 0", got)
	}
	checkOneHome(t, sys, 0)
	if sys.Stats().Remasters == 0 {
		t.Fatal("no localization recorded")
	}
	// The written row and the untouched rows all moved.
	home := sys.sites[0]
	if data, ok := home.ReadLocal(ref(110)); !ok || string(data) != "pulled" {
		t.Fatalf("site 0 read after pull: %q %v", data, ok)
	}
	for k := uint64(100); k < 200; k++ {
		if k == 110 {
			continue
		}
		if data, ok := home.ReadLocal(ref(k)); !ok || data[0] != byte(k) {
			t.Fatalf("site 0 row %d after pull: %v %v", k, data, ok)
		}
		if _, ok := sys.sites[1].ReadLocal(ref(k)); ok {
			t.Fatalf("site 1 still holds row %d", k)
		}
	}
}

func TestLEAPPingPong(t *testing.T) {
	// Two clients homed at different sites alternately touching the same
	// partition force repeated shipping — the ping-pong the paper blames
	// for LEAP's tail latency.
	sys := loadedBaseline(t, KindLEAP, 2, 300).(*leap)
	c0, c1 := sys.NewClient(0), sys.NewClient(1)
	// Pin the clients' homes to different sites via their first writes
	// (partition 0 -> site 0, partition 1 -> site 1).
	if err := c0.Update([]storage.RowRef{ref(10)}, func(tx systems.Tx) error {
		return tx.Write(ref(10), []byte("pin"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Update([]storage.RowRef{ref(110)}, func(tx systems.Tx) error {
		return tx.Write(ref(110), []byte("pin"))
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c0.Update([]storage.RowRef{ref(210)}, func(tx systems.Tx) error {
			return tx.Write(ref(210), []byte{byte(2 * i)})
		}); err != nil {
			t.Fatal(err)
		}
		if got := checkOneHome(t, sys, 2); got != 0 {
			t.Fatalf("iter %d: partition 2 at site %d after site 0's update", i, got)
		}
		if err := c1.Update([]storage.RowRef{ref(210)}, func(tx systems.Tx) error {
			cur, ok := tx.Read(ref(210))
			if !ok || cur[0] != byte(2*i) {
				return fmt.Errorf("iter %d: stale data after ship: %v %v", i, cur, ok)
			}
			return tx.Write(ref(210), []byte{byte(2*i + 1)})
		}); err != nil {
			t.Fatal(err)
		}
		if got := checkOneHome(t, sys, 2); got != 1 {
			t.Fatalf("iter %d: partition 2 at site %d after site 1's update", i, got)
		}
	}
	if got := sys.Stats().Remasters; got < 9 {
		t.Fatalf("localizations = %d, want >= 9 (ping-pong)", got)
	}
}

func TestLEAPScanLocalizes(t *testing.T) {
	sys := loadedBaseline(t, KindLEAP, 2, 300).(*leap)
	cl := sys.NewClient(0)
	if err := cl.Read(nil, func(tx systems.Tx) error {
		rows := tx.Scan("kv", 100, 250) // partitions 1 (site 1) and 2 (site 0)
		if len(rows) != 150 {
			return fmt.Errorf("scan rows = %d", len(rows))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []uint64{1, 2} {
		if got := checkOneHome(t, sys, p); got != 0 {
			t.Fatalf("scan left partition %d at site %d", p, got)
		}
	}
}

func TestLEAPConcurrentIncrementsFromTwoHomes(t *testing.T) {
	// Clients homed at different sites increment one counter row at once:
	// every acknowledged increment must survive the ping-pong.
	sys := loadedBaseline(t, KindLEAP, 2, 300).(*leap)
	const iters = 25
	counter := ref(250) // partition 2, at site 0
	var acked [2]int
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := sys.NewClient(c)
			pin := ref(uint64(c)*100 + 10) // partition c, at site c
			if err := cl.Update([]storage.RowRef{pin}, func(tx systems.Tx) error {
				return tx.Write(pin, []byte("pin"))
			}); err != nil {
				errs <- err
				return
			}
			for i := 0; i < iters; i++ {
				if err := cl.Update([]storage.RowRef{counter}, func(tx systems.Tx) error {
					cur, ok := tx.Read(counter)
					if !ok {
						return fmt.Errorf("counter missing")
					}
					return tx.Write(counter, []byte{cur[0] + 1})
				}); err != nil {
					errs <- err
					return
				}
				acked[c]++
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	home := checkOneHome(t, sys, 2)
	data, ok := sys.sites[home].ReadLocal(counter)
	if want := byte(250 + acked[0] + acked[1]); !ok || data[0] != want {
		t.Fatalf("counter = %v %v, want %d (acked %v)", data, ok, want, acked)
	}
}

func TestUpdateFnErrorAbortsEverywhere(t *testing.T) {
	eachBaseline(t, 3, func(t *testing.T, sys systems.System) {
		cl := sys.NewClient(1)
		boom := fmt.Errorf("boom")
		err := cl.Update([]storage.RowRef{ref(10), ref(110)}, func(tx systems.Tx) error {
			tx.Write(ref(10), []byte("junk"))
			return boom
		})
		if err == nil {
			t.Fatal("error swallowed")
		}
		if err := cl.Read(nil, func(tx systems.Tx) error {
			if data, _ := tx.Read(ref(10)); string(data) == "junk" {
				return fmt.Errorf("aborted write visible")
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// Locks released: the same write set succeeds afterwards.
		if err := cl.Update([]storage.RowRef{ref(10), ref(110)}, func(tx systems.Tx) error {
			return tx.Write(ref(10), []byte("good"))
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestBaseConfigValidation(t *testing.T) {
	if _, err := newBaseline(KindMultiMaster, Env{}, partitionBy100, rangePlacement(1), nil); err == nil {
		t.Error("zero sites accepted")
	}
	if _, err := newBaseline(KindLEAP, Env{Sites: 2}, nil, rangePlacement(2), nil); err == nil {
		t.Error("missing partitioner accepted")
	}
	if _, err := newBaseline("bogus", Env{Sites: 2}, partitionBy100, rangePlacement(2), nil); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestReadRetriesOnStaleSnapshot(t *testing.T) {
	// A read-only transaction whose snapshot is buried under more installs
	// than the version chains keep fails with ErrSnapshotTooOld; the client
	// re-runs it on a fresh snapshot.
	eachBaseline(t, 1, func(t *testing.T, sys systems.System) {
		writer, reader := sys.NewClient(1), sys.NewClient(2)
		runs := 0
		err := reader.Read([]storage.RowRef{ref(5)}, func(tx systems.Tx) error {
			runs++
			if runs == 1 {
				for i := 0; i <= storage.DefaultMaxVersions; i++ {
					if err := writer.Update([]storage.RowRef{ref(5)}, func(tx systems.Tx) error {
						return tx.Write(ref(5), []byte{byte(100 + i)})
					}); err != nil {
						return err
					}
				}
			}
			data, ok := tx.Read(ref(5))
			if !ok {
				return fmt.Errorf("run %d: row 5 missing", runs)
			}
			if want := byte(100 + storage.DefaultMaxVersions); runs > 1 && data[0] != want {
				return fmt.Errorf("run %d: row 5 = %d, want %d", runs, data[0], want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if runs != 2 {
			t.Fatalf("transaction ran %d times, want 2", runs)
		}
	})
}
