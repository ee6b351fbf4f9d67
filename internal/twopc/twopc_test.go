package twopc

import (
	"errors"
	"testing"
	"time"

	"dynamast/internal/sitemgr"
	"dynamast/internal/storage"
	"dynamast/internal/vclock"
	"dynamast/internal/wal"
)

func newSites(t *testing.T, m int) []*sitemgr.Site {
	t.Helper()
	b := wal.NewBroker(m)
	t.Cleanup(func() { b.Close() })
	sites := make([]*sitemgr.Site, m)
	for i := 0; i < m; i++ {
		s, err := sitemgr.New(sitemgr.Config{
			SiteID: i, Sites: m, Broker: b,
			Partitioner: func(ref storage.RowRef) uint64 { return ref.Key / 100 },
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Store().CreateTable("t")
		sites[i] = s
	}
	return sites
}

func ref(k uint64) storage.RowRef { return storage.RowRef{Table: "t", Key: k} }

func asParticipants(sites []*sitemgr.Site) map[int]Participant {
	out := make(map[int]Participant, len(sites))
	for i, s := range sites {
		out[i] = s
	}
	return out
}

func TestPrepareCommitTwoParticipants(t *testing.T) {
	sites := newSites(t, 2)
	c := NewCoordinator(nil)
	work := map[int]Work{
		0: {WriteSet: []storage.RowRef{ref(1)}, Writes: []storage.Write{{Ref: ref(1), Data: []byte("a")}}},
		1: {WriteSet: []storage.RowRef{ref(101)}, Writes: []storage.Write{{Ref: ref(101), Data: []byte("b")}}},
	}
	parts := asParticipants(sites)
	snap, err := c.Prepare(42, work, parts)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 2 {
		t.Fatalf("prepare snap = %v", snap)
	}
	tvv, err := c.Commit(42, work, parts)
	if err != nil {
		t.Fatal(err)
	}
	if tvv[0] != 1 || tvv[1] != 1 {
		t.Fatalf("commit tvv = %v", tvv)
	}
	if d, ok := sites[0].ReadLocal(ref(1)); !ok || string(d) != "a" {
		t.Fatalf("site 0 read %q %v", d, ok)
	}
	if d, ok := sites[1].ReadLocal(ref(101)); !ok || string(d) != "b" {
		t.Fatalf("site 1 read %q %v", d, ok)
	}
}

func TestPrepareFailureAbortsOthers(t *testing.T) {
	sites := newSites(t, 2)
	c := NewCoordinator(nil)
	// Occupy txn id 7 at site 1 so its second prepare fails.
	if _, err := sites[1].Prepare(7, []storage.RowRef{ref(150)}); err != nil {
		t.Fatal(err)
	}
	work := map[int]Work{
		0: {WriteSet: []storage.RowRef{ref(1)}},
		1: {WriteSet: []storage.RowRef{ref(101)}},
	}
	if _, err := c.Prepare(7, work, asParticipants(sites)); err == nil {
		t.Fatal("prepare succeeded despite participant failure")
	}
	// Site 0's locks must have been released by the abort.
	done := make(chan struct{})
	go func() {
		snap, err := sites[0].Prepare(8, []storage.RowRef{ref(1)})
		if err != nil || snap == nil {
			panic(err)
		}
		sites[0].AbortPrepared(8)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("abort leaked locks at surviving participant")
	}
	sites[1].AbortPrepared(7)
}

func TestCommitUnpreparedFails(t *testing.T) {
	sites := newSites(t, 1)
	c := NewCoordinator(nil)
	work := map[int]Work{0: {Writes: []storage.Write{{Ref: ref(1), Data: []byte("x")}}}}
	if _, err := c.Commit(99, work, asParticipants(sites)); err == nil {
		t.Fatal("commit of unprepared txn succeeded")
	}
}

func TestAbortExported(t *testing.T) {
	sites := newSites(t, 2)
	c := NewCoordinator(nil)
	work := map[int]Work{
		0: {WriteSet: []storage.RowRef{ref(1)}},
		1: {WriteSet: []storage.RowRef{ref(101)}},
	}
	parts := asParticipants(sites)
	if _, err := c.Prepare(5, work, parts); err != nil {
		t.Fatal(err)
	}
	c.Abort(5, work, parts)
	// All locks free: a fresh prepare on the same refs succeeds instantly.
	if _, err := c.Prepare(6, work, parts); err != nil {
		t.Fatal(err)
	}
	c.Abort(6, work, parts)
}

func TestUncertainPhaseBlocksConflicts(t *testing.T) {
	sites := newSites(t, 2)
	sites[0].SetMaster(0, true)
	c := NewCoordinator(nil)
	work := map[int]Work{0: {WriteSet: []storage.RowRef{ref(1)},
		Writes: []storage.Write{{Ref: ref(1), Data: []byte("2pc")}}}}
	parts := asParticipants(sites)
	if _, err := c.Prepare(11, work, parts); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan vclock.Vector, 1)
	go func() {
		tx, err := sites[0].Begin(nil, []storage.RowRef{ref(1)})
		if err != nil {
			panic(err)
		}
		tx.Write(ref(1), []byte("local"))
		vv, err := tx.Commit()
		if err != nil {
			panic(err)
		}
		blocked <- vv
	}()
	select {
	case <-blocked:
		t.Fatal("conflicting local txn ran during uncertain phase")
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := c.Commit(11, work, parts); err != nil {
		t.Fatal(err)
	}
	select {
	case <-blocked:
	case <-time.After(2 * time.Second):
		t.Fatal("local txn never unblocked after global commit")
	}
	if d, _ := sites[0].ReadLocal(ref(1)); string(d) != "local" {
		t.Fatalf("final value %q; local txn must follow the 2PC commit", d)
	}
}

func TestCommitErrorSurfaces(t *testing.T) {
	sites := newSites(t, 2)
	c := NewCoordinator(nil)
	work := map[int]Work{
		0: {WriteSet: []storage.RowRef{ref(1)}},
		1: {WriteSet: []storage.RowRef{ref(101)}},
	}
	parts := asParticipants(sites)
	if _, err := c.Prepare(13, work, parts); err != nil {
		t.Fatal(err)
	}
	// Sabotage participant 1 by aborting its branch out-of-band; the
	// decision-phase commit must then report an error.
	sites[1].AbortPrepared(13)
	if _, err := c.Commit(13, work, parts); err == nil {
		t.Fatal("commit error swallowed")
	}
	var check error = errors.New("x")
	_ = check
}
