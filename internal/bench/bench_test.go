package bench

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dynamast/internal/obs"
	"dynamast/internal/storage"
	"dynamast/internal/systems"
	"dynamast/internal/workload"
)

// fakeSystem commits instantly; used to test the harness itself.
type fakeSystem struct {
	commits atomic.Uint64
	delay   time.Duration
}

func (f *fakeSystem) Name() string                { return "fake" }
func (f *fakeSystem) CreateTable(string)          {}
func (f *fakeSystem) Load(rows []systems.LoadRow) {}
func (f *fakeSystem) Close()                      {}
func (f *fakeSystem) Stats() systems.Stats {
	return systems.Stats{Commits: f.commits.Load()}
}
func (f *fakeSystem) NewClient(id int) systems.Client { return &fakeClient{sys: f} }

type fakeClient struct{ sys *fakeSystem }

type fakeTx struct{}

func (fakeTx) Read(storage.RowRef) ([]byte, bool)       { return []byte("v"), true }
func (fakeTx) Scan(string, uint64, uint64) []storage.KV { return []storage.KV{{Key: 1}} }
func (fakeTx) Write(storage.RowRef, []byte) error       { return nil }

func (c *fakeClient) Update(ws []storage.RowRef, fn func(systems.Tx) error) error {
	if c.sys.delay > 0 {
		time.Sleep(c.sys.delay)
	}
	if err := fn(fakeTx{}); err != nil {
		return err
	}
	c.sys.commits.Add(1)
	return nil
}

func (c *fakeClient) Read(_ []storage.RowRef, fn func(systems.Tx) error) error {
	if c.sys.delay > 0 {
		time.Sleep(c.sys.delay)
	}
	return fn(fakeTx{})
}

func TestRunCountsAndThroughput(t *testing.T) {
	sys := &fakeSystem{delay: time.Millisecond}
	wl := workload.NewYCSB(workload.YCSBConfig{Keys: 1000})
	res := Run(sys, wl, Options{Clients: 4, Duration: 300 * time.Millisecond, Seed: 1})
	if res.Txns == 0 {
		t.Fatal("no transactions recorded")
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	if res.Throughput < 100 {
		t.Fatalf("throughput = %f", res.Throughput)
	}
	if res.Overall.Count != int(res.Txns) {
		t.Fatalf("latency count %d != txns %d", res.Overall.Count, res.Txns)
	}
	if res.Overall.Avg < time.Millisecond {
		t.Fatalf("avg latency %v below injected delay", res.Overall.Avg)
	}
	// Per-kind samples must partition the total.
	sum := 0
	for _, l := range res.PerKind {
		sum += l.Count
	}
	if sum != res.Overall.Count {
		t.Fatalf("per-kind sum %d != %d", sum, res.Overall.Count)
	}
}

func TestRunWarmupExcluded(t *testing.T) {
	sys := &fakeSystem{}
	wl := workload.NewYCSB(workload.YCSBConfig{Keys: 1000})
	res := Run(sys, wl, Options{Clients: 2, Duration: 100 * time.Millisecond, Warmup: 100 * time.Millisecond, Seed: 1})
	// Commits counted by the system exceed measured txns (warmup ran).
	if res.Stats.Commits <= res.Txns/2 {
		t.Fatalf("warmup apparently measured: commits=%d txns=%d", res.Stats.Commits, res.Txns)
	}
}

func TestRunTimeline(t *testing.T) {
	sys := &fakeSystem{delay: time.Millisecond}
	wl := workload.NewYCSB(workload.YCSBConfig{Keys: 1000})
	res := Run(sys, wl, Options{
		Clients: 2, Duration: 200 * time.Millisecond, Seed: 1,
		TimelineBucket: 50 * time.Millisecond,
	})
	if len(res.Timeline) == 0 {
		t.Fatal("no timeline")
	}
	var total uint64
	for _, n := range res.Timeline {
		total += n
	}
	if total != res.Txns {
		t.Fatalf("timeline total %d != txns %d", total, res.Txns)
	}
}

func TestLatencyFromHistogram(t *testing.T) {
	h := obs.NewHistogram()
	for i := 1; i <= 100; i++ {
		h.ObserveDuration(time.Duration(i) * time.Millisecond)
	}
	l := latencyFrom(h)
	if l.Count != 100 {
		t.Fatalf("count = %d", l.Count)
	}
	// The histogram's log-spaced buckets bound quantile error by one
	// factor-2 bucket; percentiles must land within the enclosing bucket.
	within := func(name string, got, exact time.Duration) {
		if got < exact/2 || got > exact*2 {
			t.Fatalf("%s = %v, exact %v (off by more than one bucket)", name, got, exact)
		}
	}
	within("p50", l.P50, 50*time.Millisecond)
	within("p90", l.P90, 90*time.Millisecond)
	within("p99", l.P99, 99*time.Millisecond)
	if l.Max != 100*time.Millisecond {
		t.Fatalf("max = %v", l.Max)
	}
	if l.Avg != 50500*time.Microsecond {
		t.Fatalf("avg = %v", l.Avg)
	}
	if empty := latencyFrom(obs.NewHistogram()); empty.Count != 0 || empty.Avg != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
	if !strings.Contains(l.String(), "n=100 avg=50.5ms") {
		t.Fatalf("String() = %q", l.String())
	}
}

func TestWeightsFor(t *testing.T) {
	if w := WeightsFor(workload.NewTPCC(workload.TPCCConfig{})); w.Balance != 3 {
		t.Fatalf("tpcc weights %+v", w)
	}
	if w := WeightsFor(workload.NewSmallBank(workload.SmallBankConfig{})); w.Balance != 1e4 {
		t.Fatalf("smallbank weights %+v", w)
	}
	if w := WeightsFor(workload.NewYCSB(workload.YCSBConfig{})); w.Balance != 1e6 {
		t.Fatalf("ycsb weights %+v", w)
	}
}

func TestBuildAllSystems(t *testing.T) {
	wl := workload.NewYCSB(workload.YCSBConfig{Keys: 1000})
	env := Env{Sites: 2} // instant wire, free costs
	for _, kind := range AllSystems() {
		sys, err := Build(kind, wl, env)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if sys.Name() != string(kind) {
			t.Fatalf("name %q != kind %q", sys.Name(), kind)
		}
		// One transaction end-to-end.
		cl := sys.NewClient(0)
		ref := storage.RowRef{Table: workload.YCSBTable, Key: 1}
		if err := cl.Update([]storage.RowRef{ref}, func(tx systems.Tx) error {
			return tx.Write(ref, []byte("x"))
		}); err != nil {
			t.Fatalf("%s update: %v", kind, err)
		}
		sys.Close()
	}
	if _, err := Build(SystemKind("nope"), wl, env); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestExperimentPrint(t *testing.T) {
	exp := &Experiment{
		ID: "X", Caption: "test", Columns: []string{"a", "b"},
		Rows: []Row{{Label: "r1", Values: map[string]float64{"a": 1.5, "b": 2}}},
	}
	var sb strings.Builder
	exp.Print(&sb)
	out := sb.String()
	if !strings.Contains(out, "X: test") || !strings.Contains(out, "r1") ||
		!strings.Contains(out, "1.5") {
		t.Fatalf("print output:\n%s", out)
	}
}

// TestFig7BreakdownFromStageHistograms: the breakdown read off the stage
// histograms keeps Figure 7's five rows, no phase is negative, and the
// shares cover the whole update latency.
func TestFig7BreakdownFromStageHistograms(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run skipped in -short")
	}
	scale := Scale{Duration: 80 * time.Millisecond, Warmup: 40 * time.Millisecond, Clients: 8, Keys: 2_000, Seed: 3}
	exp, err := Fig7Breakdown(scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Rows) != 5 {
		t.Fatalf("Fig7 has %d rows, want 5", len(exp.Rows))
	}
	pct := 0.0
	for _, row := range exp.Rows {
		if row.Values["avg_us"] < 0 {
			t.Errorf("phase %q avg_us = %g, want >= 0", row.Label, row.Values["avg_us"])
		}
		pct += row.Values["pct"]
	}
	if exp.Rows[1].Label != "network" || exp.Rows[1].Values["avg_us"] <= 0 {
		t.Errorf("network row = %+v, want a positive wire share", exp.Rows[1])
	}
	if math.Abs(pct-100) > 0.1 {
		t.Fatalf("phase shares sum to %g%%, want 100", pct)
	}
}

func TestQuickScaleExperimentsRun(t *testing.T) {
	// Smoke the experiment wiring end-to-end at a tiny scale (not the
	// figures' reporting runs; just that every experiment executes).
	if testing.Short() {
		t.Skip("experiment smoke skipped in -short")
	}
	scale := Scale{Duration: 80 * time.Millisecond, Warmup: 40 * time.Millisecond, Clients: 8, Keys: 2_000, Seed: 3}
	if _, err := FigOverhead(scale); err != nil {
		t.Fatal(err)
	}
	if exp, err := Fig5bAdaptivity(scale); err != nil || len(exp.Rows) == 0 {
		t.Fatalf("fig5b: %v", err)
	}
}
