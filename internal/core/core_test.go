package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dynamast/internal/obs"
	"dynamast/internal/selector"
	"dynamast/internal/storage"
	"dynamast/internal/systems"
	"dynamast/internal/transport"
)

func partitionBy100(ref storage.RowRef) uint64 { return ref.Key / 100 }

func ref(key uint64) storage.RowRef { return storage.RowRef{Table: "kv", Key: key} }

func newTestCluster(t *testing.T, m int) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{
		Sites:       m,
		Partitioner: partitionBy100,
		Weights:     selector.YCSBWeights(),
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

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(Config{Partitioner: partitionBy100}); err == nil {
		t.Error("zero sites accepted")
	}
	if _, err := NewCluster(Config{Sites: 2}); err == nil {
		t.Error("missing partitioner accepted")
	}
	if _, err := NewCluster(Config{Sites: 2, Partitioner: partitionBy100, MaxVersions: storage.MaxVersionCap + 1}); err == nil {
		t.Error("version cap beyond the records' slots accepted")
	}
}

func TestLoadVisibleEverywhere(t *testing.T) {
	c := newTestCluster(t, 3)
	for _, s := range c.Sites() {
		if data, ok := s.ReadLocal(ref(42)); !ok || data[0] != 42 {
			t.Fatalf("site %d: loaded row unreadable: %v %v", s.ID(), data, ok)
		}
	}
	// Partition 0's initial master under the default scatter is site 0
	// (hash of 0), and only that site may own it.
	if !c.Sites()[0].Masters(0) || c.Sites()[1].Masters(0) {
		t.Fatal("initial mastership inconsistent")
	}
}

func TestUpdateAndReadOwnWrite(t *testing.T) {
	c := newTestCluster(t, 2)
	sess := c.Session(1)
	ws := []storage.RowRef{ref(1), ref(2)}
	err := sess.Update(ws, func(tx systems.Tx) error {
		if err := tx.Write(ref(1), []byte("a")); err != nil {
			return err
		}
		return tx.Write(ref(2), []byte("b"))
	})
	if err != nil {
		t.Fatal(err)
	}
	// Session freshness: the next read must see the update regardless of
	// which replica serves it.
	err = sess.Read(func(tx systems.Tx) error {
		if data, ok := tx.Read(ref(1)); !ok || string(data) != "a" {
			return fmt.Errorf("read own write: %q %v", data, ok)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Commits; got != 1 {
		t.Fatalf("commits = %d", got)
	}
}

func TestSessionOrderAcrossSites(t *testing.T) {
	// Strong-session SI: a session's reads always reflect its writes even
	// when repeatedly routed to random replicas.
	c := newTestCluster(t, 4)
	sess := c.Session(1)
	for i := 0; i < 20; i++ {
		val := []byte{byte(i)}
		if err := sess.Update([]storage.RowRef{ref(7)}, func(tx systems.Tx) error {
			return tx.Write(ref(7), val)
		}); err != nil {
			t.Fatal(err)
		}
		if err := sess.Read(func(tx systems.Tx) error {
			data, ok := tx.Read(ref(7))
			if !ok || data[0] != byte(i) {
				return fmt.Errorf("iteration %d: stale read %v %v", i, data, ok)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCrossPartitionUpdateRemasters(t *testing.T) {
	c := newTestCluster(t, 2)
	// First scatter mastership: pairs of partitions end up apart only if
	// we force it — move partition 5 to site 1 directly.
	s0, s1 := c.Sites()[0], c.Sites()[1]
	rel, err := s0.Release([]uint64{5}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Grant([]uint64{5}, rel, 0, 0); err != nil {
		t.Fatal(err)
	}
	c.Group().Shard(0).RegisterPartition(5, 1)

	sess := c.Session(1)
	ws := []storage.RowRef{ref(10), ref(510)} // partitions 0 and 5
	if err := sess.Update(ws, func(tx systems.Tx) error {
		tx.Write(ref(10), []byte("x"))
		return tx.Write(ref(510), []byte("y"))
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Remasters; got != 1 {
		t.Fatalf("remasters = %d", got)
	}
	// Both partitions co-located now; a second identical update needs none.
	if err := sess.Update(ws, func(tx systems.Tx) error {
		return tx.Write(ref(10), []byte("x2"))
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Remasters; got != 1 {
		t.Fatalf("remasters after amortized txn = %d", got)
	}
}

func TestUpdateFnErrorAborts(t *testing.T) {
	c := newTestCluster(t, 2)
	sess := c.Session(1)
	boom := errors.New("boom")
	err := sess.Update([]storage.RowRef{ref(1)}, func(tx systems.Tx) error {
		tx.Write(ref(1), []byte("garbage"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if err := sess.Read(func(tx systems.Tx) error {
		if data, _ := tx.Read(ref(1)); string(data) == "garbage" {
			return errors.New("aborted write visible")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Commits; got != 0 {
		t.Fatalf("commits = %d", got)
	}
}

func TestConcurrentSessionsDisjointKeys(t *testing.T) {
	c := newTestCluster(t, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for cl := 0; cl < 8; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			sess := c.Session(cl)
			for i := 0; i < 25; i++ {
				k := uint64(cl*100 + i) // client-private partition
				if err := sess.Update([]storage.RowRef{ref(k)}, func(tx systems.Tx) error {
					return tx.Write(ref(k), []byte{byte(i)})
				}); err != nil {
					errs <- err
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := c.Stats().Commits; got != 200 {
		t.Fatalf("commits = %d", got)
	}
}

func TestConcurrentSessionsContendedKeys(t *testing.T) {
	// All clients hammer the same two partitions from all sites; lost
	// updates are impossible under the mastership discipline: the final
	// counter equals the number of successful increments.
	c := newTestCluster(t, 3)
	const clients, iters = 6, 20
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			sess := c.Session(cl)
			for i := 0; i < iters; i++ {
				err := sess.Update([]storage.RowRef{ref(0), ref(100)}, func(tx systems.Tx) error {
					for _, r := range []storage.RowRef{ref(0), ref(100)} {
						cur, _ := tx.Read(r)
						var n uint64
						if len(cur) == 8 {
							for b := 0; b < 8; b++ {
								n = n<<8 | uint64(cur[b])
							}
						}
						n++
						buf := make([]byte, 8)
						for b := 0; b < 8; b++ {
							buf[b] = byte(n >> (56 - 8*b))
						}
						if err := tx.Write(r, buf); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					panic(err)
				}
			}
		}(cl)
	}
	wg.Wait()
	if err := c.WaitQuiesced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	sess := c.Session(99)
	err := sess.Read(func(tx systems.Tx) error {
		for _, r := range []storage.RowRef{ref(0), ref(100)} {
			data, ok := tx.Read(r)
			if !ok {
				return fmt.Errorf("counter %v missing", r)
			}
			var n uint64
			for b := 0; b < 8; b++ {
				n = n<<8 | uint64(data[b])
			}
			if n != clients*iters {
				return fmt.Errorf("counter %v = %d, want %d (lost updates)", r, n, clients*iters)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScansRunAtReplicas(t *testing.T) {
	c := newTestCluster(t, 2)
	sess := c.Session(1)
	err := sess.Read(func(tx systems.Tx) error {
		rows := tx.Scan("kv", 100, 110)
		if len(rows) != 10 {
			return fmt.Errorf("scan rows = %d", len(rows))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Remasters; got != 0 {
		t.Fatal("read-only scan triggered remastering")
	}
}

// TestStageHistogramsAccumulate: every committed update feeds each
// session-side lifecycle stage once; the refresh_apply stage belongs to the
// replicas' appliers.
func TestStageHistogramsAccumulate(t *testing.T) {
	c := newTestCluster(t, 2)
	sess := c.Session(1)
	for i := 0; i < 5; i++ {
		if err := sess.Update([]storage.RowRef{ref(1)}, func(tx systems.Tx) error {
			return tx.Write(ref(1), []byte("x"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.Obs().Snapshot()
	for _, st := range obs.Stages() {
		if st == obs.StageRefreshApply {
			continue
		}
		sm, ok := snap.Get("dynamast_txn_stage_seconds", obs.L("stage", st.String()))
		if !ok || sm.Count != 5 {
			t.Fatalf("stage %s: count %d (registered %v), want 5", st, sm.Count, ok)
		}
		switch st {
		case obs.StageBegin, obs.StageExecute, obs.StageCommit:
			if sm.Sum <= 0 {
				t.Fatalf("stage %s sum = %g, want > 0", st, sm.Sum)
			}
		}
	}
}

func TestNetworkChargedPerCategory(t *testing.T) {
	c, err := NewCluster(Config{
		Sites:       2,
		Partitioner: partitionBy100,
		Network:     transport.Config{OneWay: 100 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.CreateTable("kv")
	c.Load([]systems.LoadRow{{Ref: ref(1), Data: []byte("v")}})

	sess := c.Session(1)
	start := time.Now()
	if err := sess.Update([]storage.RowRef{ref(1)}, func(tx systems.Tx) error {
		return tx.Write(ref(1), []byte("w"))
	}); err != nil {
		t.Fatal(err)
	}
	// Route round trip + txn round trip = 4 one-way messages >= 400µs.
	if d := time.Since(start); d < 400*time.Microsecond {
		t.Fatalf("update took %v; network latency not charged", d)
	}
	var route, txn uint64
	for _, s := range c.Network().Stats() {
		switch s.Category {
		case transport.CatRoute:
			route = s.Messages
		case transport.CatTxn:
			txn = s.Messages
		}
	}
	if route != 2 || txn != 2 {
		t.Fatalf("route msgs = %d, txn msgs = %d", route, txn)
	}
}

func TestWaitQuiesced(t *testing.T) {
	c := newTestCluster(t, 3)
	sess := c.Session(1)
	for i := 0; i < 10; i++ {
		if err := sess.Update([]storage.RowRef{ref(uint64(i))}, func(tx systems.Tx) error {
			return tx.Write(ref(uint64(i)), []byte("x"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitQuiesced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	svv0 := c.Sites()[0].SVV()
	for _, s := range c.Sites() {
		if !s.SVV().DominatesEq(svv0) {
			t.Fatalf("site %d not quiesced: %v vs %v", s.ID(), s.SVV(), svv0)
		}
	}
}

func TestDurableClusterRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Sites:       2,
		Partitioner: partitionBy100,
		WALDir:      dir,
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.CreateTable("kv")
	c.Load([]systems.LoadRow{{Ref: ref(1), Data: []byte("init")}})
	sess := c.Session(1)
	if err := sess.Update([]storage.RowRef{ref(1)}, func(tx systems.Tx) error {
		return tx.Write(ref(1), []byte("durable"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitQuiesced(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Restart: logs replay; recover site state from the redo logs.
	c2, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.CreateTable("kv")
	if err := c2.Recover(nil); err != nil {
		t.Fatal(err)
	}
	s0 := c2.Sites()[0]
	if data, ok := s0.ReadLocal(storage.RowRef{Table: "kv", Key: 1}); !ok || string(data) != "durable" {
		t.Fatalf("recovered read = %q %v", data, ok)
	}
}

func TestSelectorReplicasEndToEnd(t *testing.T) {
	c, err := NewCluster(Config{
		Sites:            2,
		Partitioner:      partitionBy100,
		SelectorReplicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.CreateTable("kv")
	rows := make([]systems.LoadRow, 0, 400)
	for k := uint64(0); k < 400; k++ {
		rows = append(rows, systems.LoadRow{Ref: ref(k), Data: []byte{byte(k)}})
	}
	c.Load(rows)
	if c.SelectorReplicas() != 2 {
		t.Fatalf("replica tier size = %d", c.SelectorReplicas())
	}

	// Two sessions on different replicas update overlapping partitions:
	// replica A's remastering makes replica B's cache stale; B's client
	// must transparently fall back to the master and succeed.
	sessA := c.Session(0) // replica 0
	sessB := c.Session(1) // replica 1
	ws := []storage.RowRef{ref(10), ref(110)}
	for i := 0; i < 10; i++ {
		if err := sessA.Update(ws, func(tx systems.Tx) error {
			return tx.Write(ref(10), []byte{byte(i)})
		}); err != nil {
			t.Fatal(err)
		}
		// B writes a set that overlaps A's partitions plus a third one,
		// forcing remastering that invalidates A's cached locations.
		wsB := []storage.RowRef{ref(110), ref(uint64(200 + i*10))}
		if err := sessB.Update(wsB, func(tx systems.Tx) error {
			return tx.Write(ref(110), []byte{byte(i + 100)})
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Both sessions read their own writes (SSSI held through fallbacks).
	if err := sessA.Read(func(tx systems.Tx) error {
		d, ok := tx.Read(ref(10))
		if !ok || d[0] != 9 {
			return fmt.Errorf("A read %v %v", d, ok)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := sessB.Read(func(tx systems.Tx) error {
		d, ok := tx.Read(ref(110))
		if !ok || d[0] != 109 {
			return fmt.Errorf("B read %v %v", d, ok)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Commits; got != 20 {
		t.Fatalf("commits = %d", got)
	}
}
