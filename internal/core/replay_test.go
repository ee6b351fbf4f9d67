package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dynamast/internal/storage"
	"dynamast/internal/systems"
)

// pingPongWriters is how many sessions write the ping-ponged partition
// concurrently; each owns one key, so its last acked value is known.
const pingPongWriters = 4

// TestRecoverAfterPingPong is the acked ⇒ durable matrix over {per-txn
// commits, epochs} × {full redo, checkpoint + suffix} × {full replication,
// factor 2:3}. Partition 0 moves from site 0 to site 1 and back, with a
// long run of site-1 commits in between, and the cluster restarts. Site 0's
// own log then holds writes both older and newer than site 1's, so a
// replay that installs a site's own log ahead of its peers' leaves site 1's
// stale values at site 0's heads. After Recover every replica must hold
// the last acked values (c: without waiting for quiescence, every site's
// svv is at every log's end; d: a release of the partition covers the
// pre-crash writes).
func TestRecoverAfterPingPong(t *testing.T) {
	for _, epochs := range []bool{false, true} {
		for _, ckpt := range []bool{false, true} {
			for _, partial := range []bool{false, true} {
				name := fmt.Sprintf("epochs=%v/checkpoint=%v/partial=%v", epochs, ckpt, partial)
				t.Run(name, func(t *testing.T) { pingPongRestart(t, epochs, ckpt, partial) })
			}
		}
	}
}

func pingPongRestart(t *testing.T, epochs, ckpt, partial bool) {
	dir := t.TempDir()
	opts := []Option{Config{
		Sites:             3,
		Partitioner:       partitionBy100,
		WALDir:            dir,
		InitialMaster:     func(uint64) int { return 0 },
		PlacementInterval: time.Hour, // replica sets stay at their seed
	}}
	if !epochs {
		opts = append(opts, WithEpochInterval(0))
	}
	if partial {
		opts = append(opts, WithReplicationFactor(2, 3)) // partition 0 lives at sites 0 and 1
	}
	c, err := NewWithOptions(opts...)
	if err != nil {
		t.Fatal(err)
	}
	c.CreateTable("kv")

	want := make(map[uint64][]byte)
	phase := func(name string, commits int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, pingPongWriters)
		for w := 0; w < pingPongWriters; w++ {
			k := uint64(w)
			want[k] = []byte(fmt.Sprintf("%s-%d", name, commits-1))
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sess := c.Session(w)
				for i := 0; i < commits && errs[w] == nil; i++ {
					v := []byte(fmt.Sprintf("%s-%d", name, i))
					errs[w] = sess.Update([]storage.RowRef{ref(k)}, func(tx systems.Tx) error {
						return tx.Write(ref(k), v)
					})
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	move := func(from, to int) {
		t.Helper()
		epoch, err := c.Group().ShardFor(0).AllocEpoch()
		if err != nil {
			t.Fatal(err)
		}
		rel, err := c.Sites()[from].Release([]uint64{0}, to, epoch)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Sites()[to].Grant([]uint64{0}, rel, from, epoch); err != nil {
			t.Fatal(err)
		}
		c.Group().RegisterPartitionEpoch(0, to, epoch)
	}

	phase("a", 20)
	if ckpt {
		if _, err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	move(0, 1)
	phase("b", 500)
	move(1, 0)
	phase("a2", 5)
	c.Close()
	ends := logEnds(c)

	c2, err := NewWithOptions(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.CreateTable("kv")
	if err := c2.Recover(nil); err != nil {
		t.Fatal(err)
	}
	if st := c2.LastRecovery(); st.UsedCheckpoint != ckpt {
		t.Fatalf("recovery used checkpoint = %v, want %v", st.UsedCheckpoint, ckpt)
	}
	requireAtLogEnds(t, c2, ends)
	if got := c2.Group().MasterOf(0); got != 0 {
		t.Fatalf("recovered master of partition 0 = %d, want 0", got)
	}
	for i, s := range c2.Sites() {
		if !s.Hosts(0) {
			continue
		}
		for k, v := range want {
			if got, ok := s.ReadLocal(ref(k)); !ok || string(got) != string(v) {
				t.Errorf("site %d key %d after Recover = %q %v, want the last acked %q", i, k, got, ok, v)
			}
		}
	}

	epoch, err := c2.Group().ShardFor(0).AllocEpoch()
	if err != nil {
		t.Fatal(err)
	}
	relVV, err := c2.Sites()[0].Release([]uint64{0}, 1, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if !relVV.DominatesEq(ends) {
		t.Fatalf("release after Recover returned %v, which misses pre-crash writes up to %v", relVV, ends)
	}
}
