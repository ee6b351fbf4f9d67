package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{-1, 0},
		{0.5e-6, 0},
		{1e-6, 0},            // exactly the first bound
		{1.5e-6, 1},          // (1µs, 2µs]
		{2e-6, 1},            // exactly 2µs
		{2.1e-6, 2},          // (2µs, 4µs]
		{1e-3, 10},           // (512µs, 1.024ms]
		{1.0, 20},            // (524ms, 1.05s]
		{100.0, histBuckets}, // overflow bucket
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every bound must land in its own bucket; just past it, in the next.
	for i, b := range bucketBounds {
		if got := bucketIndex(b); got != i {
			t.Errorf("bound %d (%g) indexed to %d", i, b, got)
		}
		if i < histBuckets-2 {
			if got := bucketIndex(b * 1.001); got != i+1 {
				t.Errorf("past bound %d (%g) indexed to %d, want %d", i, b, got, i+1)
			}
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Avg() != 0 {
		t.Fatal("fresh histogram not zero")
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %g", q)
	}
	h.Observe(0.001)
	h.Observe(0.003)
	h.Observe(0.002)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-0.006) > 1e-12 {
		t.Fatalf("sum = %g", h.Sum())
	}
	if h.Max() != 0.003 {
		t.Fatalf("max = %g", h.Max())
	}
	if math.Abs(h.Avg()-0.002) > 1e-12 {
		t.Fatalf("avg = %g", h.Avg())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// 1000 observations spread uniformly over (0, 1s].
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	for _, p := range []float64{0.5, 0.9, 0.99} {
		got := h.Quantile(p)
		if got < p/2 || got > p*2 {
			t.Errorf("q%g = %g, outside one factor-2 bucket", p, got)
		}
	}
	// The top quantile is clamped by the observed max, not the bucket bound.
	if q := h.Quantile(1.0); q > h.Max()+1e-9 {
		t.Errorf("q1.0 = %g > max %g", q, h.Max())
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram()
	h.ObserveDuration(250 * time.Millisecond)
	if h.Count() != 1 || math.Abs(h.Sum()-0.25) > 1e-12 {
		t.Fatalf("count=%d sum=%g", h.Count(), h.Sum())
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", L("site", "0"))
	c2 := r.Counter("x_total", L("site", "0"))
	if c1 != c2 {
		t.Fatal("same name+labels produced distinct counters")
	}
	if c3 := r.Counter("x_total", L("site", "1")); c3 == c1 {
		t.Fatal("distinct labels shared a counter")
	}
	// Label order must not matter.
	h1 := r.Histogram("h_seconds", L("a", "1"), L("b", "2"))
	h2 := r.Histogram("h_seconds", L("b", "2"), L("a", "1"))
	if h1 != h2 {
		t.Fatal("label order produced distinct histograms")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	r.Gauge("m")
}

func TestNilInstrumentsNoop(t *testing.T) {
	var r *Registry
	c := r.Counter("x") // nil registry hands out nil instruments
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram recorded")
	}
	r.Func("f", KindGauge, func() float64 { return 1 })
	r.Help("f", "help")
}

func TestSnapshotLookup(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", Site(0)).Add(7)
	r.Gauge("g", Site(1)).Set(2.5)
	r.Func("f", KindGauge, func() float64 { return 42 })
	r.Histogram("h_seconds").Observe(0.5)

	s := r.Snapshot()
	if v, ok := s.Value("a_total", Site(0)); !ok || v != 7 {
		t.Fatalf("a_total = %g, %v", v, ok)
	}
	if v, ok := s.Value("g", Site(1)); !ok || v != 2.5 {
		t.Fatalf("g = %g, %v", v, ok)
	}
	if v, ok := s.Value("f"); !ok || v != 42 {
		t.Fatalf("f = %g, %v", v, ok)
	}
	if _, ok := s.Value("a_total", Site(9)); ok {
		t.Fatal("lookup with wrong labels succeeded")
	}
	sm, ok := s.Get("h_seconds")
	if !ok || sm.Kind != KindHistogram.String() || sm.Count != 1 || sm.Sum != 0.5 {
		t.Fatalf("h_seconds sample = %+v, %v", sm, ok)
	}
	if sm.P50 <= 0 || sm.Max != 0.5 {
		t.Fatalf("h_seconds quantiles = %+v", sm)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Help("req_total", "Requests served.")
	r.Counter("req_total", Site(0)).Add(3)
	r.Gauge("temp").Set(1.5)
	h := r.Histogram("lat_seconds", L("type", "w"))
	h.Observe(0.001)
	h.Observe(0.1)

	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP req_total Requests served.",
		"# TYPE req_total counter",
		`req_total{site="0"} 3`,
		"# TYPE temp gauge",
		"temp 1.5",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{type="w",le="+Inf"} 2`,
		`lat_seconds_count{type="w"} 2`,
		`lat_seconds_sum{type="w"} 0.101`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Bucket counts are cumulative: the 0.001 observation must already be
	// counted in some bucket below the 0.1 one.
	if !strings.Contains(out, `le="0.001024"} 1`) {
		t.Errorf("missing cumulative bucket in:\n%s", out)
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(2)
	r.Histogram("h_seconds").ObserveDuration(3 * time.Millisecond)
	var sb strings.Builder
	if err := r.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "c_total") || !strings.Contains(out, "2") {
		t.Errorf("counter missing in:\n%s", out)
	}
	if !strings.Contains(out, "n=1") || !strings.Contains(out, "avg=3ms") {
		t.Errorf("histogram summary missing in:\n%s", out)
	}
}
