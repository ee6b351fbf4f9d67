package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dynamast/internal/server"
	"dynamast/internal/storage"
	"dynamast/internal/workload"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []uint32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want uint32
	}{{0.50, 50}, {0.99, 100}, {0.90, 90}, {0.91, 100}, {0.01, 10}, {1, 100}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
}

func TestMedianAndSlices(t *testing.T) {
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("odd median = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 9, 2}); got != 3 {
		t.Errorf("even median = %v, want 3", got)
	}
	// One stalled slice out of six must not move the reported value.
	st := reduceSlices([]float64{100, 101, 99, 100, 20, 102})
	if st.Median != 100 || st.Min != 20 || st.Max != 102 || st.N != 6 {
		t.Errorf("reduceSlices = %+v", st)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// TestRecorderStats drives the slice arithmetic with a synthetic window:
// six slices of 5 000 tokens, the fourth three times slower than the rest.
func TestRecorderStats(t *testing.T) {
	rec := newRecorder(30_000, func() time.Duration { return 0 })
	base := time.Unix(0, 0)
	at := base
	for k := 0; k <= nSlices; k++ {
		rec.marks[k] = mark{at: at, cpu: time.Duration(k) * 50 * time.Millisecond}
		step := time.Second
		if k == 3 {
			step = 3 * time.Second
		}
		at = at.Add(step)
	}
	for i := range rec.lat {
		rec.lat[i] = uint32(1000 + i%100) // 1.000-1.099 µs
		if i%10 == 0 {
			rec.class[i] = classRead
			rec.lat[i] = 7000
		}
	}
	rec.class[1] = classUpdate | classFailed
	ws := rec.stats()
	if ws.TxnPerS.Median != 5000 || ws.TxnPerS.Min != 5000.0/3 {
		t.Errorf("txn_per_s = %+v, want median 5000 and min 1666.7", ws.TxnPerS)
	}
	if ws.TxnPerS.Max != 5000 {
		// The first slice holds the failed token: 4 999 committed.
		t.Errorf("txn_per_s max = %v, want 5000", ws.TxnPerS.Max)
	}
	if ws.CPUPerTxn.Median != 10 {
		t.Errorf("cpu_us_per_txn = %+v, want 10 (50 ms over 5 000)", ws.CPUPerTxn)
	}
	if ws.Updates != 27_000 || ws.UpdateP50 < 1.04 || ws.UpdateP50 > 1.06 || ws.UpdateP99 != 1.099 {
		t.Errorf("update p50 %v p99 %v over %d", ws.UpdateP50, ws.UpdateP99, ws.Updates)
	}
	if ws.Reads != 3000 || ws.ReadP50 != 7 || ws.ReadP99 != 7 {
		t.Errorf("read p50 %v p99 %v over %d", ws.ReadP50, ws.ReadP99, ws.Reads)
	}
}

// TestSelfTimes checks self time on a hand-built tree:
//
//	root   [0,100]
//	  a    [10,30]   with child a1 [12,20]
//	  b    [20,50]   overlaps a
//	  c    [90,120]  sticks out of root
//	other  [200,210] a second root
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: spanTxn, parent: noParent, start: 0, end: 100},
		{name: spanCommit, parent: 0, start: 90, end: 120}, // c, listed out of start order
		{name: spanBegin, parent: 0, start: 10, end: 30},   // a
		{name: spanExec, parent: 0, start: 20, end: 50},    // b
		{name: spanRead, parent: 2, start: 12, end: 20},    // a1
		{name: spanGen, parent: noParent, start: 200, end: 210},
	}
	want := []int64{
		100 - (40 + 10), // children cover [10,50] and [90,100]
		30,
		20 - 8,
		30,
		8,
		10,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	nt := totals([]*tracer{{spans: spans}})
	if nt.self[spanTxn] != 50 || nt.dur[spanTxn] != 100 || nt.count[spanRead] != 1 {
		t.Errorf("totals = %+v", nt)
	}
	shares := nt.layerShares()
	if shares[0].Layer != "core" || math.Abs(shares[0].Share-50.0/140) > 1e-12 {
		t.Errorf("layer shares = %+v, want core first with 50/140", shares)
	}
}

// TestOpListMatchesServer runs the same SmallBank operation lists through a
// real server over loopback TCP and through runOps in process, and requires
// identical results and identical final balances: the in-process twin does
// what server.handleTxn does.
func TestOpListMatchesServer(t *testing.T) {
	sp := specByName("smallbank")
	wired, err := newLocal(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer wired.close()
	direct, err := newLocal(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.close()

	srv, addr, err := server.Serve(wired.cluster, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := server.Dial(addr.String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cl := direct.cluster.NewClient(0)

	g := bankWorkload().NewGenerator(0, 1)
	r := rand.New(rand.NewSource(1))
	seen := map[string]int{}
	for i := 0; i < 300; i++ {
		gen := g.Next()
		txn, err := translate(gen, r)
		if err != nil {
			t.Fatal(err)
		}
		seen[gen.Kind]++
		overWire, err := conn.Txn(txn.ws, txn.ops)
		if err != nil {
			t.Fatalf("%s over TCP: %v", gen.Kind, err)
		}
		inProc, err := runOps(cl, txn.ws, txn.ops)
		if err != nil {
			t.Fatalf("%s in process: %v", gen.Kind, err)
		}
		if !reflect.DeepEqual(overWire, inProc) {
			t.Fatalf("%s %v: TCP returned %v, in process %v", gen.Kind, txn.ops, overWire, inProc)
		}
	}
	for _, kind := range []string{"single-update", "multi-update", "balance"} {
		if seen[kind] == 0 {
			t.Errorf("300 transactions contained no %s", kind)
		}
	}
	sumWire, err := sumChecking(conn.Txn)
	if err != nil {
		t.Fatal(err)
	}
	sumDirect, err := sumChecking(inProcess(cl))
	if err != nil {
		t.Fatal(err)
	}
	if sumWire != sumDirect {
		t.Errorf("checking total: %d over TCP, %d in process", sumWire, sumDirect)
	}
}

func TestTranslateKinds(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ref := func(k uint64) storage.RowRef { return storage.RowRef{Table: workload.TableChecking, Key: k} }
	dep, err := translate(workload.Txn{Kind: "single-update", WriteSet: []storage.RowRef{ref(7)}}, r)
	if err != nil || len(dep.ops) != 1 || dep.ops[0].Kind != server.OpAdd || uint64(dep.ops[0].Delta) != dep.deposit || dep.deposit == 0 {
		t.Errorf("deposit = %+v, %v", dep, err)
	}
	xfer, err := translate(workload.Txn{Kind: "multi-update", WriteSet: []storage.RowRef{ref(1), ref(2)}}, r)
	if err != nil || len(xfer.ops) != 2 || xfer.ops[0].Delta+xfer.ops[1].Delta != 0 || xfer.deposit != 0 {
		t.Errorf("transfer = %+v, %v: the two deltas must cancel", xfer, err)
	}
	bal, err := translate(workload.Txn{Kind: "balance", ReadHint: []storage.RowRef{ref(9)}}, r)
	if err != nil || len(bal.ws) != 0 || len(bal.ops) != 2 || bal.ops[1].Table != workload.TableSavings {
		t.Errorf("balance = %+v, %v", bal, err)
	}
	if _, err := translate(workload.Txn{Kind: "amalgamate"}, r); err == nil {
		t.Error("an unknown kind must be an error")
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests hold the code to.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke is the -smoke pass: every in-process workload at budgets / 500,
// untraced and traced, checks on. It also holds the program to
// BENCHMARK.json: the same workloads, and exactly the declared metrics with
// the declared units.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, specs[i].name)
		}
	}
	declared := func(list []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, e := range list {
			m[e.Name] = e.Unit
		}
		return m
	}
	reported := func(res outcome) map[string]string {
		m := map[string]string{}
		for _, e := range res.Metrics {
			m[e.Name] = e.Unit
		}
		return m
	}

	o := runOpts{ctx: context.Background(), seed: 1, seconds: refSeconds, div: 500, setups: 1}
	for i := range specs {
		sp := &specs[i]
		if sp.tcp {
			continue
		}
		t.Run(sp.name, func(t *testing.T) {
			res, err := measureE2E(sp, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("untraced: %+v", res)
			}
			if got, want := reported(res), declared(bf.EndToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, want)
			}
			for _, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v; it must never be 0", m.Name, m.Value)
				}
			}

			o := o
			o.out = filepath.Join(t.TempDir(), "spans.tsv")
			res, err = measureLayers(sp, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || len(res.Layers) == 0 {
				t.Errorf("traced: %+v", res)
			}
			if got, want := reported(res), declared(bf.PerLayer); !reflect.DeepEqual(got, want) {
				t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, want)
			}
			if info, err := os.Stat(o.out); err != nil || info.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
			if line := resultJSON(res); !json.Valid(line) {
				t.Errorf("result line is not JSON: %s", line)
			}
		})
	}
}
