package core

import (
	"os"
	"testing"
	"time"

	"dynamast/internal/obs"
)

// TestChaosSLOGateSeed42 is the CI SLO gate: the deterministic seed-42 chaos
// run (site kill, injected faults, failover) executes under watched latency
// SLOs and distributed trace sampling, and the build fails if any SLO
// breaches. The thresholds are generous — they catch pathological stalls
// (hung remaster chains, runaway commit latency), not CI jitter.
//
// Gated behind DYNAMAST_SLO_GATE=1 so the ordinary test run stays fast;
// DYNAMAST_FLIGHT_DIR, when set, receives flight-recorder snapshots that CI
// uploads as a postmortem artifact on failure.
func TestChaosSLOGateSeed42(t *testing.T) {
	if os.Getenv("DYNAMAST_SLO_GATE") == "" {
		t.Skip("set DYNAMAST_SLO_GATE=1 to run the SLO-gated chaos smoke")
	}
	flightDir := os.Getenv("DYNAMAST_FLIGHT_DIR")

	var seqBefore uint64
	for _, ev := range obs.FlightEvents() {
		seqBefore = max(seqBefore, ev.Seq)
	}
	c, inj, _ := newChaosCluster(t, func(cfg *Config) {
		cfg.TraceSampleEvery = 16 // tracing on: the gate measures the traced system
		cfg.SLOTargets = []obs.SLOTarget{
			{Metric: "dynamast_txn_seconds", Labels: []obs.Label{obs.L("type", "update")},
				Quantile: 0.99, Threshold: 5 * time.Second},
			{Metric: "dynamast_remaster_seconds", Quantile: 0.99, Threshold: 5 * time.Second},
		}
		cfg.SLOInterval = 50 * time.Millisecond
		cfg.FlightDir = flightDir
	})
	runChaosKillSiteMidRun(t, c, inj)

	// Close the final window, then gate.
	c.SLO().Evaluate()
	if n, _ := c.Obs().Snapshot().Value("dynamast_slo_breaches_total"); n > 0 {
		if flightDir != "" {
			if path, err := obs.SnapshotFlight("slo-gate"); err == nil {
				t.Logf("flight snapshot: %s", path)
			}
		}
		for _, ev := range obs.FlightEvents() {
			if ev.Kind == obs.FlightSLOBreach && ev.Seq > seqBefore {
				t.Errorf("breach: %s", ev.Msg)
			}
		}
		t.Fatalf("SLO gate: %.0f breach(es) during the seed-42 chaos run", n)
	}

	// The run must actually have exercised the observability tentpole: the
	// sampler produced traces, and the flight recorder captured the failover
	// and the injected faults.
	snap := c.Obs().Snapshot()
	traces, _ := snap.Value("dynamast_trace_traces_total")
	spans, _ := snap.Value("dynamast_trace_spans_total")
	if traces == 0 || spans == 0 {
		t.Fatalf("1-in-16 sampling recorded (%.0f traces, %.0f spans) over the chaos run", traces, spans)
	}
	var sawFailover, sawFault bool
	for _, ev := range obs.FlightEvents() {
		if ev.Seq <= seqBefore {
			continue
		}
		switch ev.Kind {
		case obs.FlightFailover:
			sawFailover = true
		case obs.FlightFaultInject:
			sawFault = true
		}
	}
	if !sawFailover {
		t.Error("flight recorder missed the failover")
	}
	if !sawFault {
		t.Error("flight recorder missed the injected faults")
	}
	if flightDir != "" {
		entries, err := os.ReadDir(flightDir)
		if err != nil || len(entries) == 0 {
			t.Errorf("no flight snapshot written to %s (err=%v)", flightDir, err)
		}
	}
}
