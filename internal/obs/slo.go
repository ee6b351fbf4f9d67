package obs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SLO engine: sliding-window quantile tracking with threshold breach
// detection over the registry's log-bucketed histograms. The cumulative
// Histogram quantiles answer "how has this process behaved since boot";
// SLOs need "how is it behaving *now*". The engine snapshots each watched
// histogram's raw bucket counters on every evaluation and computes the
// quantile of the *delta* — the observations that arrived during the last
// window — so a breach reflects current behaviour, not diluted history.
// Breaches increment dynamast_slo_breaches_total, land in the flight
// recorder, and drive the CI gate on the chaos suite.

// SLOTarget is one watched quantile threshold.
type SLOTarget struct {
	// Metric is the histogram's registered name.
	Metric string
	// Labels selects the histogram's exact label set.
	Labels []Label
	// Quantile is the watched quantile in (0, 1], e.g. 0.99.
	Quantile float64
	// Threshold breaches when the windowed quantile exceeds it.
	Threshold time.Duration
	// MinCount is the minimum observations per window for the target to be
	// evaluated (0 selects DefaultSLOMinCount); thin windows are skipped
	// rather than breached on noise.
	MinCount uint64
}

// DefaultSLOMinCount is the default per-window observation floor.
const DefaultSLOMinCount = 8

// String renders the target in slo-spec syntax.
func (t SLOTarget) String() string {
	return fmt.Sprintf("%s:p%g:%v", t.Metric, t.Quantile*100, t.Threshold)
}

// Breach is one detected threshold violation.
type Breach struct {
	Target   SLOTarget
	Observed time.Duration // the windowed quantile that exceeded the threshold
	Window   uint64        // observations in the window
	At       time.Time
}

// String renders the breach for logs and gate failures.
func (b Breach) String() string {
	return fmt.Sprintf("SLO breach: %s observed %v over %d obs", b.Target, b.Observed.Round(time.Microsecond), b.Window)
}

// sloWatch is one target's evaluation state.
type sloWatch struct {
	target SLOTarget
	hist   *Histogram
	prev   [histBuckets + 1]uint64 // bucket counters at the last evaluation

	latency  *Gauge   // dynamast_slo_latency_seconds{metric,quantile,...}
	window   *Gauge   // dynamast_slo_window_observations{metric,quantile,...}
	breached *Counter // dynamast_slo_breaches_total{metric,quantile,...}
}

// SLOEngine evaluates a set of SLOTargets, either on demand (Evaluate) or
// periodically (Start). A nil *SLOEngine no-ops.
type SLOEngine struct {
	reg *Registry

	mu      sync.Mutex
	watches []*sloWatch

	stop chan struct{}
	done chan struct{}

	breaches *Counter // total across targets
}

// NewSLOEngine returns an engine registering its metrics in reg (which may
// be nil for tests).
func NewSLOEngine(reg *Registry) *SLOEngine {
	reg.Help("dynamast_slo_latency_seconds", "Sliding-window latency quantile per SLO target.")
	reg.Help("dynamast_slo_window_observations", "Observations in the last SLO evaluation window.")
	reg.Help("dynamast_slo_breaches_total", "SLO threshold breaches detected, per target and in total.")
	return &SLOEngine{
		reg:      reg,
		breaches: reg.Counter("dynamast_slo_breaches_total"),
	}
}

// Watch adds a target. The watched histogram is resolved (registering an
// empty one if the producing component has not instrumented yet — the
// registry hands both parties the same instrument).
func (e *SLOEngine) Watch(t SLOTarget) error {
	if e == nil {
		return nil
	}
	if t.Metric == "" || t.Quantile <= 0 || t.Quantile > 1 || t.Threshold <= 0 {
		return fmt.Errorf("obs: invalid SLO target %+v", t)
	}
	if t.MinCount == 0 {
		t.MinCount = DefaultSLOMinCount
	}
	w := &sloWatch{target: t, hist: e.reg.Histogram(t.Metric, t.Labels...)}
	if w.hist == nil {
		w.hist = NewHistogram() // nil registry: still evaluable in tests
	}
	lbls := append(append([]Label(nil), t.Labels...),
		L("metric", t.Metric), L("quantile", strconv.FormatFloat(t.Quantile, 'g', -1, 64)))
	w.latency = e.reg.Gauge("dynamast_slo_latency_seconds", lbls...)
	w.window = e.reg.Gauge("dynamast_slo_window_observations", lbls...)
	w.breached = e.reg.Counter("dynamast_slo_breaches_total", lbls...)
	e.mu.Lock()
	e.watches = append(e.watches, w)
	e.mu.Unlock()
	return nil
}

// Evaluate closes the current window for every target: it computes each
// windowed quantile, publishes the gauges, and returns (and counts, and
// flight-records) any breaches.
func (e *SLOEngine) Evaluate() []Breach {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	now := time.Now()
	var breaches []Breach
	for _, w := range e.watches {
		var delta [histBuckets + 1]uint64
		var total uint64
		for i := range delta {
			cur := w.hist.buckets[i].Load()
			delta[i] = cur - w.prev[i]
			w.prev[i] = cur
			total += delta[i]
		}
		w.window.Set(float64(total))
		if total < w.target.MinCount {
			continue // thin window: keep the previous latency gauge value
		}
		q := quantileFromDeltas(&delta, total, w.target.Quantile)
		w.latency.Set(q)
		if q > w.target.Threshold.Seconds() {
			b := Breach{
				Target:   w.target,
				Observed: time.Duration(q * float64(time.Second)),
				Window:   total,
				At:       now,
			}
			breaches = append(breaches, b)
			w.breached.Inc()
			e.breaches.Inc()
			RecordEvent(FlightSLOBreach, SelectorSite, "%s", b.String())
		}
	}
	return breaches
}

// Start evaluates every interval until Stop. Idempotent Stop; Start after
// Stop is not supported.
func (e *SLOEngine) Start(interval time.Duration) {
	if e == nil || interval <= 0 {
		return
	}
	e.mu.Lock()
	if e.stop != nil {
		e.mu.Unlock()
		return
	}
	e.stop = make(chan struct{})
	e.done = make(chan struct{})
	stop, done := e.stop, e.done
	e.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				e.Evaluate()
			}
		}
	}()
}

// Stop halts periodic evaluation (no-op if never started).
func (e *SLOEngine) Stop() {
	if e == nil {
		return
	}
	e.mu.Lock()
	stop, done := e.stop, e.done
	e.stop, e.done = nil, nil
	e.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// quantileFromDeltas computes the p-quantile of one window's bucket deltas,
// mirroring Histogram.Quantile's rank walk and in-bucket interpolation. The
// overflow bucket has no exact max for the window, so it reports twice the
// last finite bound — pessimistic, which is the right bias for a breach
// detector.
func quantileFromDeltas(delta *[histBuckets + 1]uint64, total uint64, p float64) float64 {
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := 0; i <= histBuckets; i++ {
		n := delta[i]
		if n == 0 {
			continue
		}
		if cum+n < rank {
			cum += n
			continue
		}
		if i == histBuckets {
			return bucketBounds[histBuckets-1] * 2
		}
		lo := 0.0
		if i > 0 {
			lo = bucketBounds[i-1]
		}
		hi := bucketBounds[i]
		frac := float64(rank-cum) / float64(n)
		return lo + (hi-lo)*frac
	}
	return bucketBounds[histBuckets-1] * 2
}

// ParseSLOSpec parses a comma-separated SLO specification:
//
//	metric:quantile:threshold
//
// e.g. "dynamast_txn_update_seconds:0.99:250ms,dynamast_txn_read_seconds:0.999:100ms".
// Quantiles accept 0.5/0.99/0.999 or p50/p99/p999 forms.
func ParseSLOSpec(spec string) ([]SLOTarget, error) {
	var out []SLOTarget
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("obs: slo spec %q: want metric:quantile:threshold", part)
		}
		qs := strings.TrimPrefix(fields[1], "p")
		q, err := strconv.ParseFloat(qs, 64)
		if err != nil {
			return nil, fmt.Errorf("obs: slo spec %q: bad quantile: %w", part, err)
		}
		if strings.HasPrefix(fields[1], "p") {
			// p50 -> 0.5, p99 -> 0.99; extra nines (p999, p9999) shift down
			// a digit at a time so "three nines" parses as 0.999.
			q /= 100
			for q > 1 {
				q /= 10
			}
		}
		if q <= 0 || q > 1 {
			return nil, fmt.Errorf("obs: slo spec %q: quantile %v not in (0,1]", part, q)
		}
		d, err := time.ParseDuration(fields[2])
		if err != nil {
			return nil, fmt.Errorf("obs: slo spec %q: bad threshold: %w", part, err)
		}
		out = append(out, SLOTarget{Metric: fields[0], Quantile: q, Threshold: d})
	}
	return out, nil
}
