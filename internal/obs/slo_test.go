package obs

import (
	"strings"
	"testing"
	"time"
)

func TestParseSLOSpec(t *testing.T) {
	targets, err := ParseSLOSpec("dynamast_txn_update_seconds:0.99:250ms, dynamast_txn_read_seconds:p999:100ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 2 {
		t.Fatalf("parsed %d targets, want 2", len(targets))
	}
	if targets[0].Metric != "dynamast_txn_update_seconds" || targets[0].Quantile != 0.99 ||
		targets[0].Threshold != 250*time.Millisecond {
		t.Fatalf("target 0 wrong: %+v", targets[0])
	}
	if targets[1].Quantile != 0.999 || targets[1].Threshold != 100*time.Millisecond {
		t.Fatalf("p999 form parsed wrong: %+v", targets[1])
	}
	if got, err := ParseSLOSpec(""); err != nil || len(got) != 0 {
		t.Fatalf("empty spec = (%v, %v), want no targets, no error", got, err)
	}
	for _, bad := range []string{
		"m:0.99",          // missing threshold
		"m:abc:10ms",      // bad quantile
		"m:1.5:10ms",      // quantile out of range
		"m:0:10ms",        // quantile zero
		"m:0.99:fast",     // bad duration
		"m:0.99:10ms:bad", // too many fields
	} {
		if _, err := ParseSLOSpec(bad); err == nil {
			t.Errorf("ParseSLOSpec(%q) accepted malformed spec", bad)
		}
	}
}

func TestSLOTargetString(t *testing.T) {
	s := SLOTarget{Metric: "m", Quantile: 0.99, Threshold: 250 * time.Millisecond}.String()
	if s != "m:p99:250ms" {
		t.Fatalf("String() = %q, want m:p99:250ms", s)
	}
}

func TestSLOWatchValidation(t *testing.T) {
	e := NewSLOEngine(NewRegistry())
	for _, bad := range []SLOTarget{
		{Quantile: 0.99, Threshold: time.Millisecond},              // no metric
		{Metric: "m", Quantile: 0, Threshold: time.Millisecond},    // zero quantile
		{Metric: "m", Quantile: 1.01, Threshold: time.Millisecond}, // quantile > 1
		{Metric: "m", Quantile: 0.99},                              // no threshold
	} {
		if err := e.Watch(bad); err == nil {
			t.Errorf("Watch accepted invalid target %+v", bad)
		}
	}
	if err := e.Watch(SLOTarget{Metric: "m", Quantile: 0.99, Threshold: time.Millisecond}); err != nil {
		t.Fatalf("Watch rejected valid target: %v", err)
	}
	if len(e.watches) != 1 || e.watches[0].target.MinCount != DefaultSLOMinCount {
		t.Fatalf("watches = %+v, want one target with default MinCount", e.watches)
	}
}

func TestSLOEvaluateWindowed(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_latency_seconds")
	e := NewSLOEngine(reg)
	if err := e.Watch(SLOTarget{
		Metric: "test_latency_seconds", Quantile: 0.5,
		Threshold: 10 * time.Millisecond, MinCount: 1,
	}); err != nil {
		t.Fatal(err)
	}

	// Window 1: all fast — no breach.
	for i := 0; i < 20; i++ {
		h.Observe(0.001)
	}
	if br := e.Evaluate(); len(br) != 0 {
		t.Fatalf("fast window breached: %+v", br)
	}

	// Window 2: all slow. The cumulative histogram median would still be
	// diluted by window 1's 20 fast points; the windowed delta must see only
	// the slow ones and breach.
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	br := e.Evaluate()
	if len(br) != 1 {
		t.Fatalf("slow window: got %d breaches, want 1", len(br))
	}
	if br[0].Window != 10 {
		t.Fatalf("breach window = %d observations, want 10 (delta, not cumulative)", br[0].Window)
	}
	if br[0].Observed < 100*time.Millisecond {
		t.Fatalf("breach observed %v, want >= 100ms-ish for 500ms observations", br[0].Observed)
	}
	if e.breaches.Value() != 1 {
		t.Fatalf("TotalBreaches = %d, want 1", e.breaches.Value())
	}
	if !strings.Contains(br[0].String(), "SLO breach") {
		t.Fatalf("Breach.String() = %q", br[0].String())
	}

	// Window 3: empty — no observations, no breach, no divide-by-zero.
	if br := e.Evaluate(); len(br) != 0 {
		t.Fatalf("empty window breached: %+v", br)
	}

	snap := reg.Snapshot()
	lbls := []Label{L("metric", "test_latency_seconds"), L("quantile", "0.5")}
	if v, ok := snap.Value("dynamast_slo_breaches_total", lbls...); !ok || v != 1 {
		t.Fatalf("per-target breach counter = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := snap.Value("dynamast_slo_breaches_total"); !ok || v != 1 {
		t.Fatalf("total breach counter = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := snap.Value("dynamast_slo_window_observations", lbls...); !ok || v != 0 {
		t.Fatalf("window gauge = %v (ok=%v), want 0 after the empty window", v, ok)
	}
}

func TestSLOMinCountSkipsThinWindows(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("thin_seconds")
	e := NewSLOEngine(reg)
	if err := e.Watch(SLOTarget{
		Metric: "thin_seconds", Quantile: 0.99,
		Threshold: time.Microsecond, // everything breaches...
		MinCount:  8,                // ...but thin windows are skipped
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		h.Observe(1.0)
	}
	if br := e.Evaluate(); len(br) != 0 {
		t.Fatalf("thin window (7 < MinCount 8) breached: %+v", br)
	}
	h.Observe(1.0) // 8th observation lands in the NEXT window
	for i := 0; i < 7; i++ {
		h.Observe(1.0)
	}
	if br := e.Evaluate(); len(br) != 1 {
		t.Fatalf("full window: got %d breaches, want 1", len(br))
	}
}

func TestSLOOverflowBucketPessimistic(t *testing.T) {
	var delta [histBuckets + 1]uint64
	delta[histBuckets] = 10 // all observations in overflow
	got := quantileFromDeltas(&delta, 10, 0.99)
	want := bucketBounds[histBuckets-1] * 2
	if got != want {
		t.Fatalf("overflow quantile = %v, want pessimistic %v", got, want)
	}
	if q := quantileFromDeltas(&delta, 0, 0.99); q != 0 {
		t.Fatalf("zero-total quantile = %v, want 0", q)
	}
}

func TestSLOEngineNilSafe(t *testing.T) {
	var e *SLOEngine
	if err := e.Watch(SLOTarget{}); err != nil {
		t.Fatal("nil engine Watch must no-op")
	}
	if e.Evaluate() != nil {
		t.Fatal("nil engine accessors must return zero values")
	}
	e.Start(time.Second)
	e.Stop()
}

func TestSLOStartStop(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("periodic_seconds")
	e := NewSLOEngine(reg)
	if err := e.Watch(SLOTarget{
		Metric: "periodic_seconds", Quantile: 0.5,
		Threshold: time.Microsecond, MinCount: 1,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		h.Observe(1.0)
	}
	e.Start(time.Millisecond)
	e.Start(time.Millisecond) // idempotent second start
	deadline := time.Now().Add(2 * time.Second)
	for e.breaches.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	e.Stop()
	e.Stop() // idempotent
	if e.breaches.Value() == 0 {
		t.Fatal("periodic evaluation never detected the breach")
	}
}
