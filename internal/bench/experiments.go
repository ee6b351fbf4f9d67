package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"dynamast/internal/core"
	"dynamast/internal/obs"
	"dynamast/internal/selector"
	"dynamast/internal/transport"
	"dynamast/internal/workload"
)

// Scale sizes an experiment run. Quick keeps unit benches fast; Full is the
// reporting configuration used by cmd/dynamast-bench and the final
// EXPERIMENTS.md numbers.
type Scale struct {
	Duration time.Duration
	Warmup   time.Duration
	Clients  int
	Keys     uint64 // YCSB key count
	Seed     int64
	// EpochInterval overrides DynaMast's epoch group-commit interval for
	// A/B comparisons (0 = the core default; negative disables epochs).
	EpochInterval time.Duration
}

// QuickScale runs each point in well under a second.
func QuickScale() Scale {
	return Scale{Duration: 400 * time.Millisecond, Warmup: 200 * time.Millisecond, Clients: 64, Keys: 10_000, Seed: 1}
}

// FullScale is the reporting configuration. The warmup is long enough for
// DynaMast's placement to largely converge (remastering decays from ~50%
// of writes at cold start toward the paper's few-percent steady state).
func FullScale() Scale {
	return Scale{Duration: 4 * time.Second, Warmup: 10 * time.Second, Clients: 128, Keys: 50_000, Seed: 1}
}

func (s Scale) opts() Options {
	return Options{Clients: s.Clients, Duration: s.Duration, Warmup: s.Warmup, Seed: s.Seed}
}

// Row is one line of an experiment's output table.
type Row struct {
	Label  string
	Values map[string]float64
	Result *Result
}

// Experiment is a regenerated figure/table.
type Experiment struct {
	ID      string
	Caption string
	Columns []string
	Rows    []Row
}

// Print renders the experiment as an aligned table.
func (e *Experiment) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", e.ID, e.Caption)
	fmt.Fprintf(w, "%-34s", "config")
	for _, c := range e.Columns {
		fmt.Fprintf(w, "%16s", c)
	}
	fmt.Fprintln(w)
	for _, r := range e.Rows {
		fmt.Fprintf(w, "%-34s", r.Label)
		for _, c := range e.Columns {
			fmt.Fprintf(w, "%16.1f", r.Values[c])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// runSystems runs every evaluated system over one workload configuration
// and emits one row per system with the requested metric columns.
func runSystems(wl workload.Workload, env Env, opts Options, metric func(Result) map[string]float64) ([]Row, error) {
	var rows []Row
	for _, kind := range AllSystems() {
		res, err := RunOne(kind, wl, env, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", kind, err)
		}
		r := res
		rows = append(rows, Row{Label: string(kind), Values: metric(res), Result: &r})
	}
	return rows, nil
}

func msAvgP90P99(kind string) func(Result) map[string]float64 {
	return func(r Result) map[string]float64 {
		l := r.PerKind[kind]
		return map[string]float64{
			"avg_ms": float64(l.Avg) / 1e6,
			"p90_ms": float64(l.P90) / 1e6,
			"p99_ms": float64(l.P99) / 1e6,
		}
	}
}

func throughputMetric(r Result) map[string]float64 {
	return map[string]float64{
		"txn_per_s": r.Throughput,
		"errors":    float64(r.Errors),
	}
}

// Fig4aYCSBUniform5050 (E1): throughput of the five systems on uniform
// YCSB 50/50 RMW/scan as clients increase.
func Fig4aYCSBUniform5050(scale Scale, clientPoints []int) (*Experiment, error) {
	return ycsbThroughputSweep("Fig4a", "YCSB uniform 50/50 RMW/scan throughput vs clients",
		scale, clientPoints, 50, false)
}

// Fig4bYCSBUniform9010 (E2): throughput on uniform YCSB 90/10 RMW/scan.
func Fig4bYCSBUniform9010(scale Scale, clientPoints []int) (*Experiment, error) {
	return ycsbThroughputSweep("Fig4b", "YCSB uniform 90/10 RMW/scan throughput vs clients",
		scale, clientPoints, 90, false)
}

// FigSkewYCSBZipfian (E7): throughput on zipfian YCSB 90/10.
func FigSkewYCSBZipfian(scale Scale) (*Experiment, error) {
	return ycsbThroughputSweep("FigSkew", "YCSB zipfian(0.75) 90/10 RMW/scan throughput",
		scale, []int{scale.Clients}, 90, true)
}

func ycsbThroughputSweep(id, caption string, scale Scale, clientPoints []int, rmwPct int, zipf bool) (*Experiment, error) {
	exp := &Experiment{ID: id, Caption: caption, Columns: []string{"txn_per_s", "errors"}}
	if len(clientPoints) == 0 {
		clientPoints = []int{scale.Clients}
	}
	for _, clients := range clientPoints {
		wl := workload.NewYCSB(workload.YCSBConfig{Keys: scale.Keys, RMWPercent: rmwPct, Zipfian: zipf})
		env := DefaultEnv(4)
		env.Seed = scale.Seed
		env.EpochInterval = scale.EpochInterval
		opts := scale.opts()
		opts.Clients = clients
		rows, err := runSystems(wl, env, opts, throughputMetric)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			r.Label = fmt.Sprintf("%s clients=%d", r.Label, clients)
			exp.Rows = append(exp.Rows, r)
		}
	}
	return exp, nil
}

// tpccWorkload builds the standard TPC-C configuration; quick scales use
// a smaller database so data loading does not dominate the run.
func tpccWorkload(scale Scale, noPct, payPct, crossNO, crossPay int) *workload.TPCC {
	cfg := workload.TPCCConfig{
		NewOrderPercent:  noPct,
		PaymentPercent:   payPct,
		CrossNewOrderPct: crossNO,
		CrossPaymentPct:  crossPay,
	}
	if scale.Keys < 20_000 {
		cfg.Items = 500
		cfg.CustomersPerD = 30
		cfg.InitialOrders = 10
	}
	return workload.NewTPCC(cfg)
}

// tpccOpts sizes a TPC-C run: the paper drives 8 sites with 350 concurrent
// clients; quick scales keep their small client counts.
func tpccOpts(scale Scale) Options {
	opts := scale.opts()
	if scale.Clients >= 100 {
		opts.Clients = 350
	}
	return opts
}

// Fig4cTPCCNewOrderLatency (E3): New-Order latency (avg/p90/p99) across the
// systems at the default 45/45/10 mix on 8 sites.
func Fig4cTPCCNewOrderLatency(scale Scale) (*Experiment, error) {
	wl := tpccWorkload(scale, 45, 45, 10, 15)
	env := DefaultEnv(8)
	env.Seed = scale.Seed
	rows, err := runSystems(wl, env, tpccOpts(scale), msAvgP90P99("neworder"))
	if err != nil {
		return nil, err
	}
	return &Experiment{ID: "Fig4c", Caption: "TPC-C New-Order latency (45/45/10, 8 sites)",
		Columns: []string{"avg_ms", "p90_ms", "p99_ms"}, Rows: rows}, nil
}

// Fig4dTPCCStockLevelLatency (E4): Stock-Level latency across systems.
func Fig4dTPCCStockLevelLatency(scale Scale) (*Experiment, error) {
	wl := tpccWorkload(scale, 45, 45, 10, 15)
	env := DefaultEnv(8)
	env.Seed = scale.Seed
	rows, err := runSystems(wl, env, tpccOpts(scale), msAvgP90P99("stocklevel"))
	if err != nil {
		return nil, err
	}
	return &Experiment{ID: "Fig4d", Caption: "TPC-C Stock-Level latency (45/45/10, 8 sites)",
		Columns: []string{"avg_ms", "p90_ms", "p99_ms"}, Rows: rows}, nil
}

// Fig4eTPCCNewOrderMix (E5): throughput as the New-Order share grows.
func Fig4eTPCCNewOrderMix(scale Scale, noPoints []int) (*Experiment, error) {
	if len(noPoints) == 0 {
		noPoints = []int{25, 45, 70, 90}
	}
	exp := &Experiment{ID: "Fig4e", Caption: "TPC-C throughput vs % New-Order",
		Columns: []string{"txn_per_s", "errors"}}
	for _, no := range noPoints {
		pay := (100 - no) * 45 / 55
		if no+pay > 95 {
			pay = 95 - no
		}
		wl := tpccWorkload(scale, no, pay, 10, 15)
		env := DefaultEnv(8)
		env.Seed = scale.Seed
		rows, err := runSystems(wl, env, tpccOpts(scale), throughputMetric)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			r.Label = fmt.Sprintf("%s neworder=%d%%", r.Label, no)
			exp.Rows = append(exp.Rows, r)
		}
	}
	return exp, nil
}

// FigCrossWarehouse (E6): New-Order latency as cross-warehouse share grows.
func FigCrossWarehouse(scale Scale, crossPoints []int) (*Experiment, error) {
	if len(crossPoints) == 0 {
		crossPoints = []int{-1, 10, 20, 33} // -1 encodes 0%
	}
	exp := &Experiment{ID: "FigXWH", Caption: "TPC-C New-Order avg latency vs % cross-warehouse",
		Columns: []string{"avg_ms", "p90_ms", "p99_ms"}}
	for _, cross := range crossPoints {
		wl := tpccWorkload(scale, 45, 45, cross, 15)
		env := DefaultEnv(8)
		env.Seed = scale.Seed
		rows, err := runSystems(wl, env, tpccOpts(scale), msAvgP90P99("neworder"))
		if err != nil {
			return nil, err
		}
		pct := cross
		if pct < 0 {
			pct = 0
		}
		for _, r := range rows {
			r.Label = fmt.Sprintf("%s cross=%d%%", r.Label, pct)
			exp.Rows = append(exp.Rows, r)
		}
	}
	return exp, nil
}

// Fig5bAdaptivity (E8): DynaMast's response to a workload change (the
// paper's randomized-correlation YCSB experiment: 100 clients, 100% RMW,
// skew, client affinity 25). The cluster first converges on the default
// range-structured correlations; then the correlation pattern is
// randomized (a seeded permutation of partition ids) and both throughput
// and the remastering rate are tracked in slices from the moment of the
// change. Adaptation shows as the remastering rate collapsing (typically
// >10x within a few slices) while throughput recovers; the paper reports
// the corresponding throughput effect as a ~1.6x rise over its interval.
func Fig5bAdaptivity(scale Scale) (*Experiment, error) {
	base := workload.YCSBConfig{
		Keys: scale.Keys, RMWPercent: 100, Zipfian: true, AffinityTxns: 25,
	}
	wl1 := workload.NewYCSB(base)
	cfg2 := base
	cfg2.Shuffled = true
	cfg2.ShuffleSeed = 13
	wl2 := workload.NewYCSB(cfg2)

	env := DefaultEnv(4)
	env.Seed = scale.Seed
	sys, err := Build(KindDynaMast, wl1, env)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	cluster := sys.(*core.Cluster)

	// Phase 1: converge on the original correlations.
	Run(sys, wl1, Options{Clients: 100, Duration: scale.Warmup + scale.Duration, Seed: scale.Seed})

	// Phase 2: the workload changes; measure slices from the change.
	exp := &Experiment{ID: "Fig5b", Caption: "DynaMast adaptivity after a correlation change (per-slice)",
		Columns: []string{"txn_per_s", "remaster_pct"}}
	m := cluster.Group().Metrics()
	lastW, lastR := m.WriteTxns, m.RemasterTxns
	slice := scale.Duration / 2
	if slice <= 0 {
		slice = scale.Duration
	}
	var firstRate, lastRate float64
	for i := 0; i < 6; i++ {
		res := Run(sys, wl2, Options{Clients: 100, Duration: slice, Seed: scale.Seed + int64(i) + 1})
		m = cluster.Group().Metrics()
		dw, dr := m.WriteTxns-lastW, m.RemasterTxns-lastR
		lastW, lastR = m.WriteTxns, m.RemasterTxns
		rate := 0.0
		if dw > 0 {
			rate = 100 * float64(dr) / float64(dw)
		}
		if i == 0 {
			firstRate = rate
		}
		lastRate = rate
		exp.Rows = append(exp.Rows, Row{
			Label:  fmt.Sprintf("slice %d", i),
			Values: map[string]float64{"txn_per_s": res.Throughput, "remaster_pct": rate},
		})
	}
	reduction := 0.0
	if lastRate > 0 {
		reduction = firstRate / lastRate
	}
	exp.Rows = append(exp.Rows, Row{
		Label:  "remaster-rate reduction (x)",
		Values: map[string]float64{"txn_per_s": 0, "remaster_pct": reduction},
	})
	return exp, nil
}

// Fig5aSensitivity (E9): DynaMast throughput while scaling each strategy
// weight over orders of magnitude, including zeroing it, on skewed YCSB;
// also reports the per-site routing fractions when w_balance is scaled to
// 0.01 of its default (the paper's 34%/13% imbalance).
func Fig5aSensitivity(scale Scale) (*Experiment, error) {
	exp := &Experiment{ID: "Fig5a", Caption: "DynaMast weight sensitivity (YCSB zipfian 90/10)",
		Columns: []string{"txn_per_s", "remaster_pct", "route_max_pct", "route_min_pct"}}
	base := selector.YCSBWeights()
	type variant struct {
		label string
		w     selector.Weights
	}
	variants := []variant{{"defaults", base}}
	for _, f := range []float64{0, 0.01, 0.1, 10, 100} {
		w := base
		w.Balance = base.Balance * f
		variants = append(variants, variant{fmt.Sprintf("w_balance x%g", f), w})
	}
	for _, f := range []float64{0, 0.1, 10} {
		w := base
		w.IntraTxn = base.IntraTxn * f
		variants = append(variants, variant{fmt.Sprintf("w_intra x%g", f), w})
	}
	for _, f := range []float64{0, 10} {
		w := base
		w.Delay = base.Delay * f
		variants = append(variants, variant{fmt.Sprintf("w_delay x%g", f), w})
	}
	for _, v := range variants {
		wl := workload.NewYCSB(workload.YCSBConfig{Keys: scale.Keys, RMWPercent: 90, Zipfian: true})
		env := DefaultEnv(4)
		env.Seed = scale.Seed
		env.Weights = v.w
		sys, err := Build(KindDynaMast, wl, env)
		if err != nil {
			return nil, err
		}
		res := Run(sys, wl, scale.opts())
		cluster := sys.(interface {
			Group() *selector.Group
		})
		m := cluster.Group().Metrics()
		var maxR, minR, total uint64
		minR = ^uint64(0)
		for _, n := range m.RoutedPerSite {
			total += n
			if n > maxR {
				maxR = n
			}
			if n < minR {
				minR = n
			}
		}
		remPct, maxPct, minPct := 0.0, 0.0, 0.0
		if m.WriteTxns > 0 {
			remPct = 100 * float64(m.RemasterTxns) / float64(m.WriteTxns)
		}
		if total > 0 {
			maxPct = 100 * float64(maxR) / float64(total)
			minPct = 100 * float64(minR) / float64(total)
		}
		sys.Close()
		exp.Rows = append(exp.Rows, Row{Label: v.label, Values: map[string]float64{
			"txn_per_s": res.Throughput, "remaster_pct": remPct,
			"route_max_pct": maxPct, "route_min_pct": minPct,
		}})
	}
	return exp, nil
}

// Fig7Breakdown (E10): DynaMast's per-phase latency breakdown on uniform
// YCSB 50/50 (site-selector locate+route, network, begin, transaction
// logic, commit), read off the cluster's stage histograms. Network is the
// mean update latency minus the stage means: the wire legs are the only
// intervals no stage covers.
func Fig7Breakdown(scale Scale) (*Experiment, error) {
	wl := workload.NewYCSB(workload.YCSBConfig{Keys: scale.Keys, RMWPercent: 50})
	env := DefaultEnv(4)
	env.Seed = scale.Seed
	sys, err := Build(KindDynaMast, wl, env)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	Run(sys, wl, scale.opts())
	snap := sys.(*core.Cluster).Obs().Snapshot()
	mean := func(name string, label obs.Label) time.Duration {
		sm, ok := snap.Get(name, label)
		if !ok || sm.Count == 0 {
			return 0
		}
		return time.Duration(sm.Sum / float64(sm.Count) * float64(time.Second))
	}
	stage := func(st obs.Stage) time.Duration {
		return mean("dynamast_txn_stage_seconds", obs.L("stage", st.String()))
	}
	route := stage(obs.StageRoute) + stage(obs.StageRemaster)
	begin, logic := stage(obs.StageBegin), stage(obs.StageExecute)
	commit := stage(obs.StageCommit) + stage(obs.StageWALPublish)
	network := max(mean("dynamast_txn_seconds", obs.L("type", "update"))-route-begin-logic-commit, 0)
	total := route + network + begin + logic + commit
	exp := &Experiment{ID: "Fig7", Caption: "DynaMast update-transaction latency breakdown (YCSB uniform 50/50)",
		Columns: []string{"avg_us", "pct"}}
	phase := func(name string, d time.Duration) {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(d) / float64(total)
		}
		exp.Rows = append(exp.Rows, Row{Label: name, Values: map[string]float64{
			"avg_us": float64(d) / 1e3, "pct": pct,
		}})
	}
	phase("route (selector incl. remaster)", route)
	phase("network", network)
	phase("begin (locks + session wait)", begin)
	phase("transaction logic", logic)
	phase("commit", commit)
	return exp, nil
}

// Fig6bDBSize (E11): DynaMast throughput at 1x and 6x database size across
// the four YCSB mixes.
func Fig6bDBSize(scale Scale) (*Experiment, error) {
	exp := &Experiment{ID: "Fig6b", Caption: "DynaMast throughput vs database size (YCSB mixes)",
		Columns: []string{"txn_per_s"}}
	type mix struct {
		label string
		rmw   int
		zipf  bool
	}
	mixes := []mix{{"50-50U", 50, false}, {"90-10U", 90, false}, {"90-10S", 90, true}}
	for _, sizeMul := range []uint64{1, 6} {
		for _, mx := range mixes {
			wl := workload.NewYCSB(workload.YCSBConfig{
				Keys: scale.Keys * sizeMul, RMWPercent: mx.rmw, Zipfian: mx.zipf,
			})
			env := DefaultEnv(4)
			env.Seed = scale.Seed
			res, err := RunOne(KindDynaMast, wl, env, scale.opts())
			if err != nil {
				return nil, err
			}
			exp.Rows = append(exp.Rows, Row{
				Label:  fmt.Sprintf("%s size x%d", mx.label, sizeMul),
				Values: map[string]float64{"txn_per_s": res.Throughput},
			})
		}
	}
	return exp, nil
}

// Fig6cSiteScaling (E12): DynaMast throughput at 4/8/12/16 sites, uniform
// 50/50 (the paper reports >3x from 4 to 16).
func Fig6cSiteScaling(scale Scale, sitePoints []int) (*Experiment, error) {
	if len(sitePoints) == 0 {
		sitePoints = []int{4, 8, 12, 16}
	}
	exp := &Experiment{ID: "Fig6c", Caption: "DynaMast throughput vs data sites (YCSB uniform 50/50)",
		Columns: []string{"txn_per_s", "speedup"}}
	var base float64
	for _, m := range sitePoints {
		wl := workload.NewYCSB(workload.YCSBConfig{Keys: scale.Keys, RMWPercent: 50})
		env := DefaultEnv(m)
		env.Seed = scale.Seed
		opts := scale.opts()
		opts.Clients = scale.Clients * m / sitePoints[0]
		res, err := RunOne(KindDynaMast, wl, env, opts)
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = res.Throughput
		}
		exp.Rows = append(exp.Rows, Row{
			Label: fmt.Sprintf("sites=%d clients=%d", m, opts.Clients),
			Values: map[string]float64{
				"txn_per_s": res.Throughput,
				"speedup":   res.Throughput / base,
			},
		})
	}
	return exp, nil
}

// Fig8aSmallBankThroughput (E13): SmallBank max throughput, five systems.
func Fig8aSmallBankThroughput(scale Scale) (*Experiment, error) {
	wl := workload.NewSmallBank(workload.SmallBankConfig{Customers: scale.Keys})
	env := DefaultEnv(4)
	env.Seed = scale.Seed
	rows, err := runSystems(wl, env, scale.opts(), throughputMetric)
	if err != nil {
		return nil, err
	}
	return &Experiment{ID: "Fig8a", Caption: "SmallBank throughput",
		Columns: []string{"txn_per_s", "errors"}, Rows: rows}, nil
}

// Fig8bcdSmallBankTails (E14): SmallBank per-class tail latency.
func Fig8bcdSmallBankTails(scale Scale) (*Experiment, error) {
	wl := workload.NewSmallBank(workload.SmallBankConfig{Customers: scale.Keys})
	env := DefaultEnv(4)
	env.Seed = scale.Seed
	exp := &Experiment{ID: "Fig8b-d", Caption: "SmallBank per-class latency (multi-update / single-update / balance)",
		Columns: []string{"avg_ms", "p99_ms", "max_ms"}}
	for _, kind := range AllSystems() {
		res, err := RunOne(kind, wl, env, scale.opts())
		if err != nil {
			return nil, err
		}
		for _, class := range []string{"multi-update", "single-update", "balance"} {
			l := res.PerKind[class]
			exp.Rows = append(exp.Rows, Row{
				Label: fmt.Sprintf("%s %s", kind, class),
				Values: map[string]float64{
					"avg_ms": float64(l.Avg) / 1e6,
					"p99_ms": float64(l.P99) / 1e6,
					"max_ms": float64(l.Max) / 1e6,
				},
			})
		}
	}
	return exp, nil
}

// Fig8efgPayment (E15): TPC-C Payment latency across systems, and its
// growth as cross-warehouse Payments increase.
func Fig8efgPayment(scale Scale) (*Experiment, error) {
	exp := &Experiment{ID: "Fig8e-g", Caption: "TPC-C Payment latency; sweep of % cross-warehouse Payments",
		Columns: []string{"avg_ms", "p90_ms", "p99_ms"}}
	for _, crossPay := range []int{-1, 15, 30} {
		wl := tpccWorkload(scale, 45, 45, 10, crossPay)
		env := DefaultEnv(8)
		env.Seed = scale.Seed
		rows, err := runSystems(wl, env, tpccOpts(scale), msAvgP90P99("payment"))
		if err != nil {
			return nil, err
		}
		pct := crossPay
		if pct < 0 {
			pct = 0
		}
		for _, r := range rows {
			r.Label = fmt.Sprintf("%s crosspay=%d%%", r.Label, pct)
			exp.Rows = append(exp.Rows, r)
		}
	}
	return exp, nil
}

// FigOverhead (E16): DynaMast remastering overhead — fraction of
// transactions that required remastering and network bytes by category
// (YCSB uniform 50/50).
func FigOverhead(scale Scale) (*Experiment, error) {
	wl := workload.NewYCSB(workload.YCSBConfig{Keys: scale.Keys, RMWPercent: 50})
	env := DefaultEnv(4)
	env.Seed = scale.Seed
	sys, err := Build(KindDynaMast, wl, env)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	res := Run(sys, wl, scale.opts())
	cluster := sys.(interface {
		Group() *selector.Group
		Network() *transport.Network
	})
	m := cluster.Group().Metrics()
	exp := &Experiment{ID: "FigOverhead", Caption: "DynaMast remastering overhead (YCSB uniform 50/50)",
		Columns: []string{"value"}}
	remPct := 0.0
	if m.WriteTxns > 0 {
		remPct = 100 * float64(m.RemasterTxns) / float64(m.WriteTxns)
	}
	exp.Rows = append(exp.Rows,
		Row{Label: "write txns", Values: map[string]float64{"value": float64(m.WriteTxns)}},
		Row{Label: "remastered txns (%)", Values: map[string]float64{"value": remPct}},
		Row{Label: "partitions moved", Values: map[string]float64{"value": float64(m.PartsMoved)}},
		Row{Label: "throughput (txn/s)", Values: map[string]float64{"value": res.Throughput}},
	)
	secs := (scale.Duration + scale.Warmup).Seconds()
	for _, st := range cluster.Network().Stats() {
		exp.Rows = append(exp.Rows, Row{
			Label:  fmt.Sprintf("net %s (KB/s)", st.Category),
			Values: map[string]float64{"value": float64(st.Bytes) / 1024 / secs},
		})
	}
	return exp, nil
}

// FigLatencyAblation is a reproduction-specific ablation: sweep the
// simulated one-way network latency and compare DynaMast with multi-master
// on a cross-partition-heavy YCSB mix. The 2PC gap grows with RTT because
// distributed commits pay multiple rounds per transaction while
// remastering is amortized across many.
func FigLatencyAblation(scale Scale) (*Experiment, error) {
	exp := &Experiment{ID: "FigLatAbl", Caption: "DynaMast vs multi-master throughput vs one-way latency (YCSB 90/10)",
		Columns: []string{"txn_per_s", "dm_over_mm"}}
	for _, oneWay := range []time.Duration{2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond} {
		wl := workload.NewYCSB(workload.YCSBConfig{Keys: scale.Keys, RMWPercent: 90})
		env := DefaultEnv(4)
		env.Seed = scale.Seed
		env.Network.OneWay = oneWay
		var dm, mm float64
		for _, kind := range []SystemKind{KindDynaMast, KindMultiMaster} {
			res, err := RunOne(kind, wl, env, scale.opts())
			if err != nil {
				return nil, err
			}
			ratio := 0.0
			if kind == KindDynaMast {
				dm = res.Throughput
			} else {
				mm = res.Throughput
				if mm > 0 {
					ratio = dm / mm
				}
			}
			exp.Rows = append(exp.Rows, Row{
				Label:  fmt.Sprintf("%s oneway=%s", kind, oneWay),
				Values: map[string]float64{"txn_per_s": res.Throughput, "dm_over_mm": ratio},
			})
		}
	}
	return exp, nil
}

// FigVersionCapAblation sweeps the MVCC version-chain cap, the paper's
// empirically chosen 4-version setting (§V-A1): too few versions starve
// long snapshot reads of visible versions under write pressure; more
// versions cost memory with no benefit at these read lengths.
func FigVersionCapAblation(scale Scale) (*Experiment, error) {
	exp := &Experiment{ID: "FigVerCap", Caption: "DynaMast throughput vs MVCC version cap (YCSB 50/50)",
		Columns: []string{"txn_per_s", "errors"}}
	for _, cap := range []int{1, 2, 4, 8} {
		wl := workload.NewYCSB(workload.YCSBConfig{Keys: scale.Keys, RMWPercent: 50})
		env := DefaultEnv(4)
		env.Seed = scale.Seed
		c, err := core.NewCluster(core.Config{
			Sites:       env.Sites,
			Partitioner: wl.Partitioner(),
			Weights:     WeightsFor(wl),
			Network:     env.Network,
			ExecSlots:   env.ExecSlots,
			Costs:       env.Costs,
			MaxVersions: cap,
			Seed:        env.Seed,
		})
		if err != nil {
			return nil, err
		}
		for _, t := range wl.Tables() {
			c.CreateTable(t)
		}
		c.Load(wl.LoadRows())
		res := Run(c, wl, scale.opts())
		c.Close()
		exp.Rows = append(exp.Rows, Row{
			Label:  fmt.Sprintf("versions=%d", cap),
			Values: map[string]float64{"txn_per_s": res.Throughput, "errors": float64(res.Errors)},
		})
	}
	return exp, nil
}

// WriteCSV renders the experiment as CSV (one row per config, one column
// per metric) for plotting.
func (e *Experiment) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"config"}, e.Columns...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range e.Rows {
		rec := make([]string, 0, len(header))
		rec = append(rec, r.Label)
		for _, c := range e.Columns {
			rec = append(rec, strconv.FormatFloat(r.Values[c], 'f', 3, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
