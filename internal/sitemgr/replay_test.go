package sitemgr

import (
	"strings"
	"testing"
	"time"

	"dynamast/internal/storage"
	"dynamast/internal/vclock"
	"dynamast/internal/wal"
)

// Replay orders a site's own log against its peers': key 7 is written at
// site 0, its partition moves to site 1, and site 1 overwrites the key
// under a begin vector covering site 0's write. A fresh site 1 replaying
// the logs must end with site 1's value at the head; installing its own log
// first and site 0's on top would resurrect the older value. Replay also
// rebuilds the partition's write watermark, so a release after it covers
// the replayed write.
func TestReplayOrdersOwnLogAfterItsDependencies(t *testing.T) {
	sites, broker := testCluster(t, 2)
	a, b := sites[0], sites[1]

	tx, _ := a.Begin(nil, []storage.RowRef{ref(7)})
	tx.Write(ref(7), []byte("a"))
	aVV := mustCommit(t, tx)
	rel, err := a.Release([]uint64{0}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Grant([]uint64{0}, rel, 0, 0); err != nil {
		t.Fatal(err)
	}
	tx, err = b.Begin(nil, []storage.RowRef{ref(7)})
	if err != nil {
		t.Fatal(err)
	}
	tx.Write(ref(7), []byte("b"))
	bVV := mustCommit(t, tx)
	if !bVV.DominatesEq(aVV) {
		t.Fatalf("site 1's write %v does not cover site 0's %v", bVV, aVV)
	}

	fresh, err := New(Config{SiteID: 1, Sites: 2, Broker: broker, Partitioner: partitionBy100})
	if err != nil {
		t.Fatal(err)
	}
	fresh.Store().CreateTable("t")
	own, peers, err := fresh.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if own != 1 || peers != 1 {
		t.Fatalf("replayed own=%d peers=%d, want 1 and 1", own, peers)
	}
	if data, ok := fresh.ReadLocal(ref(7)); !ok || string(data) != "b" {
		t.Fatalf("head after replay = %q %v, want site 1's \"b\"", data, ok)
	}
	if !fresh.SVV().Equal(vclock.Vector{1, 1}) {
		t.Fatalf("svv after replay = %v, want [1 1]", fresh.SVV())
	}

	fresh.AdoptMastership(map[uint64]int{0: 1})
	relVV, err := fresh.Release([]uint64{0}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !relVV.DominatesEq(bVV) {
		t.Fatalf("release after replay returned %v, which misses the write at %v", relVV, bVV)
	}
}

// A replay that cannot order an entry returns an error naming it instead of
// waiting for a write no log holds: site 1's entry depends on site 0's
// seq 5, and site 0's log ends at 3.
func TestReplayReportsUnorderableEntry(t *testing.T) {
	b := wal.NewBroker(2)
	defer b.Close()
	appendUpdate := func(origin int, tvv vclock.Vector, key uint64) {
		t.Helper()
		if _, err := b.Log(origin).Append(wal.Entry{
			Kind:   wal.KindUpdate,
			Origin: origin,
			TVV:    tvv,
			Writes: []storage.Write{{Ref: ref(key), Data: []byte("x")}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for seq := uint64(1); seq <= 3; seq++ {
		appendUpdate(0, vclock.Vector{seq, 0}, seq)
	}
	appendUpdate(1, vclock.Vector{5, 1}, 101)

	s, err := New(Config{SiteID: 0, Sites: 2, Broker: b, Partitioner: partitionBy100})
	if err != nil {
		t.Fatal(err)
	}
	s.Store().CreateTable("t")
	done := make(chan error, 1)
	go func() {
		_, _, err := s.Replay(nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Replay accepted an entry whose dependency no log holds")
		}
		for _, want := range []string{"origin 1 seq 1", "svv[0] >= 5", "reached 3"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Replay hung on an entry no log can order")
	}
	if got := s.SVV(); !got.Equal(vclock.Vector{3, 0}) {
		t.Fatalf("svv after the stalled replay = %v, want site 0's whole log [3 0]", got)
	}
}
