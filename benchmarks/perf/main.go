// Command perf is the repository's performance benchmark: CPU-bound
// end-to-end numbers for four workloads, and from a separate traced run a
// per-layer budget. See README.md in this directory for every metric and
// workload, and BENCHMARK.json at the module root for the bounds.
//
//	go run ./benchmarks/perf -seed 1                 # all workloads, end to end
//	go run ./benchmarks/perf -seed 1 -trace 1        # all workloads, per layer
//	go run ./benchmarks/perf -workload smallbank -seed 7 -seconds 14 -trace 0
//	go run ./benchmarks/perf -repeat 5               # noise calibration
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strings"
	"syscall"
)

func main() {
	workloadName := flag.String("workload", "", "run one workload (ycsb_rmw, ycsb_scan, smallbank, smallbank_tcp); empty runs all four")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", refSeconds, "run length the transaction budgets are scaled to (windows are counts, not durations)")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run at a fifth of the budgets, per-layer metrics")
	repeat := flag.Int("repeat", 1, "run the set this many times in fresh processes, alternating workload order, and print each metric's median, quartiles and spread")
	smoke := flag.Bool("smoke", false, "budgets / 500, in-process workloads only, one set-up, checks on")
	out := flag.String("out", "", "span file of a traced run (default .bench_build/spans-<workload>.tsv)")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *repeat < 1 {
		flag.Usage()
		os.Exit(2)
	}

	selected := specs
	if *workloadName != "" {
		sp := specByName(*workloadName)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "perf: unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
		selected = []spec{*sp}
	}
	if *repeat > 1 {
		if err := calibrate(selected, *seed, *seconds, *trace, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			os.Exit(1)
		}
		return
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
	o := runOpts{seed: *seed, seconds: *seconds, div: 1, setups: setupRuns, root: root, out: *out}
	if *smoke {
		o.div, o.setups = 500, 1
	}

	ok := true
	for i := range selected {
		sp := &selected[i]
		if *smoke && sp.tcp {
			continue
		}
		res, err := runOne(sp, o, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perf: %s: %v\n", sp.name, err)
			os.Exit(1)
		}
		printOutcome(res, o)
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne measures one workload, building the daemon first when the
// workload needs it. While a child daemon may be running, an interrupt
// cancels the context that owns it, which kills it; the run then fails on
// its next RPC and cleans up on the way out.
func runOne(sp *spec, o runOpts, traced bool) (outcome, error) {
	o.ctx = context.Background()
	if sp.tcp {
		bin, err := buildDaemon(o.root)
		if err != nil {
			return outcome{}, err
		}
		o.daemon = bin
		ctx, stop := signal.NotifyContext(o.ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
		o.ctx = ctx
	}
	if traced {
		return measureLayers(sp, o)
	}
	return measureE2E(sp, o)
}

// printOutcome writes the text report and, as the last line, the result as
// one JSON object.
func printOutcome(res outcome, o runOpts) {
	fmt.Printf("== %s  seed %d  budgets scaled to %gs ==\n", res.Workload, o.seed, o.seconds)
	for _, m := range res.Metrics {
		if m.Slices > 1 {
			fmt.Printf("  %-34s %14.4f %-5s  [min %.4f  max %.4f  over %d]\n", m.Name, m.Value, m.Unit, m.Min, m.Max, m.Slices)
		} else {
			fmt.Printf("  %-34s %14.4f %s\n", m.Name, m.Value, m.Unit)
		}
	}
	if len(res.Layers) > 0 {
		var parts []string
		for _, l := range res.Layers {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", l.Layer, 100*l.Share))
		}
		fmt.Printf("  self time by layer: %s\n", strings.Join(parts, ", "))
		fmt.Printf("  largest self-time share: %s\n", res.Layers[0].Layer)
		fmt.Printf("  spans written to %s\n", res.SpanFile)
	}
	fmt.Printf("  attempted %d  failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, p := range res.Problems {
		fmt.Printf("  problem: %s\n", p)
	}
	fmt.Println(string(resultJSON(res)))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the one-line machine-readable result.
func resultJSON(res outcome) []byte {
	metrics := make(map[string]jsonMetric, len(res.Metrics))
	for _, m := range res.Metrics {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no such number; a metric that could not be computed reads 0
		}
		metrics[m.Name] = jsonMetric{Value: v, Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // a struct of bools, ints, finite floats and strings always marshals
	}
	return line
}

// calibrate is the noise calibration mode. It runs the selected workloads n
// times, each run in a fresh process as the gating driver does, with seeds
// seed, seed+1, …, walking the workloads forwards on even rounds and
// backwards on odd ones so no workload always follows the same neighbour.
// It prints, for every metric, the median, quartiles and spread (IQR over
// median) of the n values.
func calibrate(selected []spec, seed int64, seconds float64, trace, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per run
	for round := 0; round < n; round++ {
		for k := range selected {
			sp := selected[k]
			if round%2 == 1 {
				sp = selected[len(selected)-1-k]
			}
			cmd := exec.Command(self,
				"-workload", sp.name, "-seed", fmt.Sprint(seed+int64(round)),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s round %d: %w", sp.name, round, err)
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var res struct {
				Correct bool                  `json:"correct"`
				Metrics map[string]jsonMetric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s round %d: result line: %w", sp.name, round, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s round %d: run was not correct", sp.name, round)
			}
			if values[sp.name] == nil {
				values[sp.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[sp.name][name] = append(values[sp.name][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "perf: round %d/%d %s done\n", round+1, n, sp.name)
		}
	}
	for _, sp := range selected {
		fmt.Printf("== %s  %d runs  seeds %d..%d  budgets scaled to %gs ==\n", sp.name, n, seed, seed+int64(n)-1, seconds)
		fmt.Printf("  %-34s %14s %14s %14s %9s\n", "metric", "q1", "median", "q3", "spread")
		var names []string
		for name := range values[sp.name] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			vs := values[sp.name][name]
			q1, q2, q3 := quartiles(vs)
			fmt.Printf("  %-34s %14.4f %14.4f %14.4f %8.2f%%\n", name, q1, q2, q3, 100*spread(vs))
		}
	}
	return nil
}
