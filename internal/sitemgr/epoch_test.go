package sitemgr

import (
	"bytes"
	"testing"
	"time"

	"dynamast/internal/storage"
	"dynamast/internal/wal"
)

// testClusterEpoch builds m replicating sites over one broker with the
// given epoch interval (0 disables epochs at this layer), partitions 0-9
// mastered at site 0.
func testClusterEpoch(t *testing.T, m int, interval time.Duration) ([]*Site, *wal.Broker) {
	t.Helper()
	b := wal.NewBroker(m)
	sites := make([]*Site, m)
	for i := 0; i < m; i++ {
		s, err := New(Config{
			SiteID:        i,
			Sites:         m,
			Broker:        b,
			Partitioner:   partitionBy100,
			EpochInterval: interval,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Store().CreateTable("t")
		for p := uint64(0); p < 10; p++ {
			s.SetMaster(p, i == 0)
		}
		sites[i] = s
	}
	for _, s := range sites {
		s.Start()
	}
	t.Cleanup(func() {
		b.Close()
		for _, s := range sites {
			s.Stop()
		}
	})
	return sites, b
}

// logEntries snapshots every entry currently in site i's log.
func logEntries(b *wal.Broker, i int) []wal.Entry {
	cur := b.Log(i).Subscribe(0)
	defer cur.Close()
	var out []wal.Entry
	for e, ok := cur.TryNext(); ok; e, ok = cur.TryNext() {
		out = append(out, e)
	}
	return out
}

// TestEpochCommitsCoalesceAndPropagate commits a burst of transactions and
// checks (a) the origin's log holds them as KindEpoch frames whose members
// cover every commit sequence exactly once, and (b) replicas converge to
// the same data through the batched apply path.
func TestEpochCommitsCoalesceAndPropagate(t *testing.T) {
	sites, b := testClusterEpoch(t, 3, time.Millisecond)
	const n = 20
	for i := uint64(0); i < n; i++ {
		tx, err := sites[0].Begin(nil, []storage.RowRef{ref(i)})
		if err != nil {
			t.Fatal(err)
		}
		tx.Write(ref(i), []byte{byte(i)})
		mustCommit(t, tx)
	}

	var seqs []uint64
	for _, e := range logEntries(b, 0) {
		if e.Kind != wal.KindEpoch {
			t.Fatalf("epoch-enabled site logged a %v entry", e.Kind)
		}
		if len(e.Txns) == 0 {
			t.Fatal("epoch entry with no members")
		}
		first := e.FirstSeq()
		for j := range e.Txns {
			seqs = append(seqs, first+uint64(j))
		}
	}
	if len(seqs) != n {
		t.Fatalf("epoch members cover %d commits, want %d", len(seqs), n)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("member %d has seq %d, want dense sequence %d", i, seq, i+1)
		}
	}

	for _, s := range sites[1:] {
		s := s
		waitFor(t, func() bool { return s.clock.Get(0) == n })
		for i := uint64(0); i < n; i++ {
			data, ok := s.ReadLocal(ref(i))
			if !ok || !bytes.Equal(data, []byte{byte(i)}) {
				t.Fatalf("site %d: key %d = %v after epoch refresh", s.ID(), i, data)
			}
		}
	}
}

// TestEpochAckImpliesLogged pins the group-commit ack contract: by the time
// Commit returns, the sealed epoch containing the transaction is already in
// the origin's log and the svv self-dimension covers it — exactly the
// durability point per-transaction commits had.
func TestEpochAckImpliesLogged(t *testing.T) {
	sites, b := testClusterEpoch(t, 2, 2*time.Millisecond)
	tx, err := sites[0].Begin(nil, []storage.RowRef{ref(1)})
	if err != nil {
		t.Fatal(err)
	}
	tx.Write(ref(1), []byte("x"))
	tvv := mustCommit(t, tx)
	seq := tvv[0]

	if got := sites[0].clock.Get(0); got < seq {
		t.Fatalf("svv[self] = %d after ack, want >= %d", got, seq)
	}
	var covered bool
	for _, e := range logEntries(b, 0) {
		if e.Kind == wal.KindEpoch && e.FirstSeq() <= seq && seq <= e.TVV[0] {
			covered = true
		}
	}
	if !covered {
		t.Fatalf("acked commit seq %d not covered by any sealed epoch in the log", seq)
	}
}

// TestEpochDisabledRestoresPerTxnFrames checks the opt-out: with the
// interval at zero every commit appends its own KindUpdate entry with no
// member list, the pre-epoch log shape (whose payload bytes are pinned by
// wal.TestEntryPayloadByteIdentity).
func TestEpochDisabledRestoresPerTxnFrames(t *testing.T) {
	sites, b := testClusterEpoch(t, 2, 0)
	const n = 5
	for i := uint64(0); i < n; i++ {
		tx, err := sites[0].Begin(nil, []storage.RowRef{ref(i)})
		if err != nil {
			t.Fatal(err)
		}
		tx.Write(ref(i), []byte{byte(i)})
		mustCommit(t, tx)
	}
	entries := logEntries(b, 0)
	if len(entries) != n {
		t.Fatalf("disabled epochs logged %d entries, want %d per-txn entries", len(entries), n)
	}
	for _, e := range entries {
		if e.Kind != wal.KindUpdate || e.Txns != nil {
			t.Fatalf("disabled epochs logged kind %v (Txns %v), want per-txn updates", e.Kind, e.Txns)
		}
	}
}

// TestEpochReadYourWrites checks SSSI session order across the seal
// boundary: a transaction begun immediately after a commit ack at the same
// site observes that commit without waiting out another epoch.
func TestEpochReadYourWrites(t *testing.T) {
	sites, _ := testClusterEpoch(t, 2, 5*time.Millisecond)
	tx, err := sites[0].Begin(nil, []storage.RowRef{ref(1)})
	if err != nil {
		t.Fatal(err)
	}
	tx.Write(ref(1), []byte("mine"))
	tvv := mustCommit(t, tx)

	rd, err := sites[0].Begin(tvv, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, ok := rd.Read(ref(1))
	if !ok || !bytes.Equal(data, []byte("mine")) {
		t.Fatalf("session read after commit = %v, want own write", data)
	}
	rd.Abort()
}

// TestEpochKillSealsBuffer checks a killed site leaves no acked commit
// outside the log: Kill force-seals the open epoch, so the log covers the
// full committed prefix.
func TestEpochKillSealsBuffer(t *testing.T) {
	sites, b := testClusterEpoch(t, 2, 50*time.Millisecond)
	var last uint64
	for i := uint64(0); i < 3; i++ {
		tx, err := sites[0].Begin(nil, []storage.RowRef{ref(i)})
		if err != nil {
			t.Fatal(err)
		}
		tx.Write(ref(i), []byte{byte(i)})
		last = mustCommit(t, tx)[0]
	}
	sites[0].Kill()
	var covered uint64
	for _, e := range logEntries(b, 0) {
		if e.IsUpdate() && e.TVV[0] > covered {
			covered = e.TVV[0]
		}
	}
	if covered < last {
		t.Fatalf("log covers seq %d after Kill, want every acked commit through %d", covered, last)
	}
}

// TestEpochSealedBeforeRelease checks remaster fencing: releasing a
// partition seals the open epoch first, so no epoch frame containing the
// partition's writes lands after the KindRelease record in the log.
func TestEpochSealedBeforeRelease(t *testing.T) {
	sites, b := testClusterEpoch(t, 2, 50*time.Millisecond)
	tx, err := sites[0].Begin(nil, []storage.RowRef{ref(5)})
	if err != nil {
		t.Fatal(err)
	}
	tx.Write(ref(5), []byte("pre-release"))
	mustCommit(t, tx)

	if _, err := sites[0].Release([]uint64{0}, 1, 1); err != nil {
		t.Fatal(err)
	}

	released := false
	for _, e := range logEntries(b, 0) {
		switch e.Kind {
		case wal.KindRelease:
			released = true
		case wal.KindEpoch, wal.KindUpdate:
			if released {
				t.Fatalf("update entry (kind %v, tvv %v) after release record", e.Kind, e.TVV)
			}
		}
	}
	if !released {
		t.Fatal("release record missing from log")
	}
}
