package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dynamast/internal/core"
	"dynamast/internal/obs"
	"dynamast/internal/storage"
)

// TestMetricsEndToEnd drives a small cluster through remastering-forcing
// update transactions, every one sampled, and checks the full observability
// surface: the /metrics Prometheus endpoint, the /debug/traces list whose
// stages derive from each trace's span tree (route → release/grant → begin
// → execute → commit → WAL flush → refresh apply), and the metrics RPC that
// backs `dynactl metrics`.
func TestMetricsEndToEnd(t *testing.T) {
	cluster, err := core.NewCluster(core.Config{
		Sites:            2,
		TraceSampleEvery: 1,
		// One key per partition, alternating initial masters: any two-key
		// write set {2k, 2k+1} spans both sites and must remaster.
		Partitioner:   func(ref storage.RowRef) uint64 { return ref.Key },
		InitialMaster: func(part uint64) int { return int(part % 2) },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, err := Serve(cluster, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Close()
		cluster.Close()
	}()

	// The same handler dynamastd mounts behind -metrics-listen.
	web := httptest.NewServer(obs.Handler(cluster.Obs(), cluster.Spans()))
	defer web.Close()

	cl, err := Dial(addr.String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}

	// Updates whose write sets span both initial masters force remastering.
	const txns = 8
	for i := uint64(0); i < txns; i++ {
		k0, k1 := 2*i, 2*i+1
		ws := []storage.RowRef{{Table: "kv", Key: k0}, {Table: "kv", Key: k1}}
		ops := []Op{
			{Kind: OpPut, Table: "kv", Key: k0, Value: []byte("a")},
			{Kind: OpPut, Table: "kv", Key: k1, Value: []byte("b")},
		}
		if _, err := cl.Txn(ws, ops); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := cl.Get("kv", 0); err != nil { // one read transaction
		t.Fatal(err)
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(web.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	// /metrics: the families the acceptance criteria name, live with data.
	prom := string(get("/metrics"))
	for _, want := range []string{
		`dynamast_commits_total{site="0"}`,
		`dynamast_commits_total{site="1"}`,
		`dynamast_refreshes_total{site="0"}`,
		`dynamast_aborts_total{site="0"}`,
		"dynamast_remaster_total ",
		"dynamast_remaster_seconds_bucket",
		`dynamast_net_bytes_total{category=`,
		`dynamast_refresh_delay{`,
		`dynamast_txn_stage_seconds_bucket{stage="remaster"`,
		`dynamast_route_total{type="read"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	var remasters float64
	fmt.Sscanf(promValue(t, prom, "dynamast_remaster_total"), "%g", &remasters)
	if remasters == 0 {
		t.Fatal("no remaster transactions counted")
	}

	// /debug/traces: poll until a remastered trace carries every lifecycle
	// stage (refresh-apply completes asynchronously).
	stages := []string{"route", "remaster", "begin", "execute", "commit", "wal_publish", "refresh_apply"}
	var goodTrace *obs.TraceJSON
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && goodTrace == nil {
		var traces []obs.TraceJSON
		if err := json.Unmarshal(get("/debug/traces?n=64"), &traces); err != nil {
			t.Fatal(err)
		}
		for i, tr := range traces {
			complete := tr.Remastered && tr.TotalNS > 0
			for _, st := range stages {
				complete = complete && tr.Stages[st] > 0
			}
			if complete {
				goodTrace = &traces[i]
				break
			}
		}
		if goodTrace == nil {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if goodTrace == nil {
		t.Fatalf("no remastered trace with all of %v > 0 appeared", stages)
	}
	if goodTrace.Site < 0 || goodTrace.Spans < 9 {
		t.Errorf("remastered trace headline incomplete: %+v", goodTrace)
	}

	// ?sort=slow must order by total latency.
	var slow []obs.TraceJSON
	if err := json.Unmarshal(get("/debug/traces?sort=slow"), &slow); err != nil {
		t.Fatal(err)
	}
	if len(slow) != txns {
		t.Fatalf("?sort=slow listed %d traces, want all %d sampled updates", len(slow), txns)
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].TotalNS > slow[i-1].TotalNS {
			t.Fatalf("slow sort out of order: %d > %d", slow[i].TotalNS, slow[i-1].TotalNS)
		}
	}

	// The metrics RPC (dynactl's path) reports the same state.
	reply, err := cl.Metrics(10)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := reply.Snapshot.Value("dynamast_remaster_total"); !ok || v != remasters {
		t.Fatalf("RPC remaster_total = %g, %v; want %g", v, ok, remasters)
	}
	commits := 0.0
	for site := 0; site < 2; site++ {
		v, ok := reply.Snapshot.Value("dynamast_commits_total", obs.Site(site))
		if !ok {
			t.Fatalf("RPC missing commits_total{site=%d}", site)
		}
		commits += v
	}
	if commits != txns {
		t.Fatalf("RPC commits = %g, want %d", commits, txns)
	}
	if len(reply.Traces) == 0 {
		t.Fatal("RPC returned no traces")
	}
	if sm, ok := reply.Snapshot.Get("dynamast_txn_seconds", obs.L("type", "update")); !ok || sm.Count != txns || sm.P50 <= 0 {
		t.Fatalf("RPC txn_seconds{update} = %+v, %v", sm, ok)
	}
}

// promValue extracts the value of an unlabelled sample line from Prometheus
// exposition text.
func promValue(t *testing.T, body, name string) string {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strings.TrimPrefix(line, name+" ")
		}
	}
	t.Fatalf("%s not found in exposition", name)
	return ""
}

// TestMetricsListenFlagHandler checks the handler serves the right content
// type on a plain listener, as dynamastd mounts it.
func TestMetricsContentType(t *testing.T) {
	cluster, err := core.NewCluster(core.Config{
		Sites:       2,
		Partitioner: func(ref storage.RowRef) uint64 { return ref.Key / 100 },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go http.Serve(ln, obs.Handler(cluster.Obs(), cluster.Spans()))
	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	resp2, err := http.Get("http://" + ln.Addr().String() + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("traces content type = %q", ct)
	}
}
