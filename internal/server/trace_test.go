package server

import (
	"testing"
	"time"

	"dynamast/internal/core"
	"dynamast/internal/obs"
	"dynamast/internal/storage"
)

// TestDistributedTraceOverTCP drives a sampled update transaction through
// the real TCP transport and asserts the acceptance criterion for the
// tracing tentpole: one trace whose span tree stitches the route decision,
// the remaster's release (source site) and grant (destination site) legs,
// execution, commit, the WAL flush, and the replicas' asynchronous refresh
// application — with spans at two or more distinct data sites.
func TestDistributedTraceOverTCP(t *testing.T) {
	cluster, err := core.NewCluster(core.Config{
		Sites:       2,
		Partitioner: func(ref storage.RowRef) uint64 { return ref.Key / 100 },
		// Pin partition p to site p%2 so a write set spanning partitions 0
		// and 1 is guaranteed to need a mastership transfer.
		InitialMaster: func(p uint64) int { return int(p % 2) },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, err := Serve(cluster, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		cluster.Close()
	})

	cl, err := Dial(addr.String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	// Warm both partitions at their pinned masters (single-partition writes
	// remaster nothing).
	if err := cl.Put("kv", 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put("kv", 150, []byte("b")); err != nil {
		t.Fatal(err)
	}

	// The sampled transaction: its write set spans both partitions, so the
	// selector must remaster one of them before routing.
	sc := obs.NewTraceContext()
	ws := []storage.RowRef{{Table: "kv", Key: 1}, {Table: "kv", Key: 150}}
	if _, err := cl.TxnTraced(sc, ws, []Op{
		{Kind: OpAdd, Table: "kv", Key: 1, Delta: 1},
		{Kind: OpAdd, Table: "kv", Key: 150, Delta: 1},
	}); err != nil {
		t.Fatal(err)
	}

	// The synchronous spans are recorded before the RPC returns; the
	// refresh-apply tail is asynchronous, so poll for it.
	want := map[string]bool{
		"txn": false, "route": false, "release": false, "grant": false,
		"execute": false, "commit": false, "wal_flush": false, "refresh_apply": false,
	}
	var spans []obs.Span
	deadline := time.Now().Add(5 * time.Second)
	for {
		spans = cluster.Spans().Spans(sc.Trace)
		for k := range want {
			want[k] = false
		}
		for _, sp := range spans {
			if _, ok := want[sp.Name]; ok {
				want[sp.Name] = true
			}
		}
		complete := true
		for _, seen := range want {
			complete = complete && seen
		}
		if complete || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("trace missing a %q span; got %d spans: %+v", name, len(spans), spans)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// One tree: exactly one root, and every parent edge resolves to a span
	// in the same trace.
	ids := make(map[uint64]bool, len(spans))
	roots := 0
	for _, sp := range spans {
		if sp.Trace != sc.Trace {
			t.Fatalf("span from another trace: %+v", sp)
		}
		ids[sp.ID] = true
		if sp.Parent == 0 {
			roots++
			if sp.Name != "txn" {
				t.Fatalf("root span is %q, want txn", sp.Name)
			}
			if sp.ID != sc.Span {
				t.Fatalf("root span id %x, want the caller's context span %x", sp.ID, sc.Span)
			}
		}
	}
	if roots != 1 {
		t.Fatalf("trace has %d roots, want 1", roots)
	}
	for _, sp := range spans {
		if sp.Parent != 0 && !ids[sp.Parent] {
			t.Fatalf("span %q parent %x not in trace", sp.Name, sp.Parent)
		}
	}

	// Cross-site: spans at two or more distinct data sites, and the release
	// and grant legs at different sites from each other.
	sites := make(map[int]bool)
	var releaseSite, grantSite = -1, -1
	for _, sp := range spans {
		if sp.Site >= 0 {
			sites[sp.Site] = true
		}
		switch sp.Name {
		case "release":
			releaseSite = sp.Site
		case "grant":
			grantSite = sp.Site
		}
	}
	if len(sites) < 2 {
		t.Fatalf("trace touched %d distinct sites, want >= 2: %+v", len(sites), spans)
	}
	if releaseSite == grantSite {
		t.Fatalf("release and grant both at site %d: the remaster legs must cross sites", releaseSite)
	}

	// The refresh-apply span hangs off the commit span at the replica.
	var commitID uint64
	for _, sp := range spans {
		if sp.Name == "commit" {
			commitID = sp.ID
		}
	}
	for _, sp := range spans {
		if sp.Name == "refresh_apply" && sp.Parent != commitID {
			t.Fatalf("refresh_apply parent %x, want commit span %x", sp.Parent, commitID)
		}
		if sp.Name == "wal_flush" && sp.Parent != commitID {
			t.Fatalf("wal_flush parent %x, want commit span %x", sp.Parent, commitID)
		}
	}
}

// TestUntracedTxnRecordsNoSpans pins the unsampled fast path: with no
// sampler configured and no caller-supplied context, transactions leave the
// span recorder empty.
func TestUntracedTxnRecordsNoSpans(t *testing.T) {
	cluster, addr := startServer(t)
	cl, err := Dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put("kv", 3, []byte("x")); err != nil {
		t.Fatal(err)
	}
	snap := cluster.Obs().Snapshot()
	traces, _ := snap.Value("dynamast_trace_traces_total")
	spans, _ := snap.Value("dynamast_trace_spans_total")
	if traces != 0 || spans != 0 {
		t.Fatalf("untraced workload recorded (%.0f traces, %.0f spans), want none", traces, spans)
	}
}
