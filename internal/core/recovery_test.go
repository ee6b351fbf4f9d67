package core

import (
	"fmt"
	"testing"
	"time"

	"dynamast/internal/sitemgr"
	"dynamast/internal/storage"
	"dynamast/internal/systems"
	"dynamast/internal/vclock"
)

// Full-cluster crash/recovery: run traffic (including remastering) against
// a durable cluster, tear everything down, restart from the write-ahead
// logs alone, and verify data and mastership state.
func TestClusterCrashRecoveryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Sites:       3,
		Partitioner: partitionBy100,
		WALDir:      dir,
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.CreateTable("kv")
	var rows []systems.LoadRow
	for k := uint64(0); k < 1000; k++ {
		rows = append(rows, systems.LoadRow{Ref: ref(k), Data: []byte{0}})
	}
	c.Load(rows)

	// Capture the load-time mastership (the WAL only records changes).
	initial := map[uint64]int{}
	for p := uint64(0); p < 10; p++ {
		initial[p] = c.Group().MasterOf(p)
	}

	// Drive cross-partition updates so mastership moves and commits land
	// at multiple sites.
	sess := c.Session(1)
	want := map[uint64]byte{}
	for i := 0; i < 40; i++ {
		a := uint64((i * 7) % 10)
		b := uint64((i*13 + 3) % 10)
		if a == b {
			continue
		}
		ws := []storage.RowRef{ref(a*100 + 5), ref(b*100 + 5)}
		v := byte(i + 1)
		if err := sess.Update(ws, func(tx systems.Tx) error {
			for _, r := range ws {
				if err := tx.Write(r, []byte{v}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want[a*100+5], want[b*100+5] = v, v
	}
	if c.Stats().Remasters == 0 {
		t.Fatal("workload did not exercise remastering")
	}
	finalMasters := map[uint64]int{}
	for p := uint64(0); p < 10; p++ {
		finalMasters[p] = c.Group().MasterOf(p)
	}
	c.Close() // "crash": all in-memory state gone; only the WALs remain
	ends := logEnds(c)

	// Restart from the logs and the checkpoint Load took.
	c2, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.CreateTable("kv")
	if err := c2.Recover(initial); err != nil {
		t.Fatal(err)
	}
	requireAtLogEnds(t, c2, ends)

	// Mastership matches the pre-crash state.
	for p := uint64(0); p < 10; p++ {
		if got := c2.Group().MasterOf(p); got != finalMasters[p] {
			t.Errorf("partition %d recovered owner %d, want %d", p, got, finalMasters[p])
		}
	}

	// Every committed value is readable at every site.
	for k, v := range want {
		for i, s := range c2.Sites() {
			data, ok := s.ReadLocal(ref(k))
			if !ok || data[0] != v {
				t.Fatalf("site %d key %d after recovery: %v %v, want %d", i, k, data, ok, v)
			}
		}
	}

	// And the recovered cluster accepts new transactions on the recovered
	// mastership, including further remastering.
	sess2 := c2.Session(5)
	ws := []storage.RowRef{ref(105), ref(905)}
	if err := sess2.Update(ws, func(tx systems.Tx) error {
		for _, r := range ws {
			if err := tx.Write(r, []byte{0xEE}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := sess2.Read(func(tx systems.Tx) error {
		data, ok := tx.Read(ref(105))
		if !ok || data[0] != 0xEE {
			return fmt.Errorf("post-recovery write unreadable: %v %v", data, ok)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// A single crashed site rejoins by bootstrapping from a live replica and
// resuming replication.
func TestSingleSiteBootstrapRejoin(t *testing.T) {
	c := newTestCluster(t, 3)
	sess := c.Session(1)
	for i := 0; i < 20; i++ {
		k := uint64(i * 37 % 1000)
		if err := sess.Update([]storage.RowRef{ref(k)}, func(tx systems.Tx) error {
			return tx.Write(ref(k), []byte{byte(i)})
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitQuiesced(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Build a replacement for site 2 from site 0's state.
	fresh, err := sitemgr.New(sitemgr.Config{
		SiteID:      2,
		Sites:       3,
		Broker:      c.Broker(),
		Partitioner: partitionBy100,
	})
	if err != nil {
		t.Fatal(err)
	}
	fresh.BootstrapFrom(c.Sites()[0])
	if !fresh.SVV().DominatesEq(c.Sites()[0].SVV()) {
		t.Fatalf("bootstrap vector %v behind donor %v", fresh.SVV(), c.Sites()[0].SVV())
	}
	// Spot-check data equality at the latest snapshot.
	for _, k := range []uint64{0, 37, 74} {
		want, okW := c.Sites()[0].ReadLocal(ref(k))
		got, okG := fresh.ReadLocal(ref(k))
		if okW != okG || (okW && string(want) != string(got)) {
			t.Fatalf("key %d differs after bootstrap: %v/%v vs %v/%v", k, want, okW, got, okG)
		}
	}
}

// Cluster.Recover performs the full recovery dance in one call.
func TestClusterRecoverConvenience(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Sites: 2, Partitioner: partitionBy100, WALDir: dir}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.CreateTable("kv")
	c.Load([]systems.LoadRow{{Ref: ref(1), Data: []byte("init")}, {Ref: ref(101), Data: []byte("init")}})
	initial := map[uint64]int{0: c.Group().MasterOf(0), 1: c.Group().MasterOf(1)}
	sess := c.Session(1)
	if err := sess.Update([]storage.RowRef{ref(1), ref(101)}, func(tx systems.Tx) error {
		tx.Write(ref(1), []byte("a"))
		return tx.Write(ref(101), []byte("b"))
	}); err != nil {
		t.Fatal(err)
	}
	master := c.Group().MasterOf(0)
	if err := c.WaitQuiesced(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Close()

	c2, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.CreateTable("kv")
	if err := c2.Recover(initial); err != nil {
		t.Fatal(err)
	}
	if got := c2.Group().MasterOf(0); got != master {
		t.Fatalf("recovered master %d, want %d", got, master)
	}
	sess2 := c2.Session(2)
	if err := sess2.Read(func(tx systems.Tx) error {
		if d, ok := tx.Read(ref(1)); !ok || string(d) != "a" {
			return fmt.Errorf("recovered read %q %v", d, ok)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The recovered cluster accepts writes on the recovered mastership.
	if err := sess2.Update([]storage.RowRef{ref(1)}, func(tx systems.Tx) error {
		return tx.Write(ref(1), []byte("post"))
	}); err != nil {
		t.Fatal(err)
	}
}

// Crash-restart after a site failover: the failed site's log still ends in
// a grant (it never released — it crashed), so mastership reconstruction
// must use the failover grants' higher epochs to decide that the heirs, not
// the dead site, own its partitions.
func TestCrashRestartAfterFailoverReconstructsMastership(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Sites: 3, Partitioner: partitionBy100, WALDir: dir}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.CreateTable("kv")
	var rows []systems.LoadRow
	for k := uint64(0); k < 1000; k++ {
		rows = append(rows, systems.LoadRow{Ref: ref(k), Data: []byte{0}})
	}
	c.Load(rows)
	initial := map[uint64]int{}
	for p := uint64(0); p < 10; p++ {
		initial[p] = c.Group().MasterOf(p)
	}

	// Some traffic, including cross-partition remastering.
	sess := c.Session(1)
	for i := 0; i < 10; i++ {
		ws := []storage.RowRef{ref(uint64(i*100 + 5)), ref(uint64((i+3)%10*100 + 5))}
		if err := sess.Update(ws, func(tx systems.Tx) error {
			for _, r := range ws {
				if err := tx.Write(r, []byte{byte(i + 1)}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Fail over a site that masters something.
	victim := -1
	for i := 0; i < 3; i++ {
		if len(c.Group().MasteredBy(i)) > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no site masters anything")
	}
	orphans := c.Group().MasteredBy(victim)
	c.KillSite(victim)
	if err := c.Failover(victim); err != nil {
		t.Fatal(err)
	}

	// Post-failover writes to the moved partitions land on the heirs.
	for _, p := range orphans {
		key := ref(p * 100)
		if err := sess.Update([]storage.RowRef{key}, func(tx systems.Tx) error {
			return tx.Write(key, []byte{0xAB})
		}); err != nil {
			t.Fatalf("post-failover write to partition %d: %v", p, err)
		}
	}
	finalMasters := map[uint64]int{}
	for p := uint64(0); p < 10; p++ {
		finalMasters[p] = c.Group().MasterOf(p)
	}
	if err := c.WaitQuiesced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Close()
	ends := logEnds(c)

	// Restart everything (including the machine that died) from the logs.
	c2, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.CreateTable("kv")
	if err := c2.Recover(initial); err != nil {
		t.Fatal(err)
	}
	// Recover returns with every site at every log's end, so fresh
	// sessions (whose empty version vectors may read any replica) see the
	// post-failover writes without waiting for quiescence.
	requireAtLogEnds(t, c2, ends)
	for p := uint64(0); p < 10; p++ {
		if got := c2.Group().MasterOf(p); got != finalMasters[p] {
			t.Errorf("partition %d recovered master %d, want %d", p, got, finalMasters[p])
		}
	}
	for _, p := range orphans {
		if got := c2.Group().MasterOf(p); got == victim {
			t.Errorf("partition %d reconstructed onto the failed site %d", p, victim)
		}
	}
	// Data written after the failover survives the restart.
	sess2 := c2.Session(9)
	for _, p := range orphans {
		key := ref(p * 100)
		if err := sess2.Read(func(tx systems.Tx) error {
			data, ok := tx.Read(key)
			if !ok || data[0] != 0xAB {
				return fmt.Errorf("partition %d: post-failover write lost: %v %v", p, data, ok)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// logEnds returns every origin's last published commit sequence: the
// version vector each site must hold once Recover returns.
func logEnds(c *Cluster) vclock.Vector {
	ends := make(vclock.Vector, len(c.Sites()))
	for o := range ends {
		ends[o] = c.Broker().Log(o).LastUpdateSeq()
	}
	return ends
}

// requireAtLogEnds fails unless every site's version vector equals ends.
func requireAtLogEnds(t *testing.T, c *Cluster, ends vclock.Vector) {
	t.Helper()
	for i, s := range c.Sites() {
		if !s.SVV().Equal(ends) {
			t.Errorf("site %d svv after Recover = %v, want the log ends %v", i, s.SVV(), ends)
		}
	}
}
