package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The flight recorder is process-global, so these tests assert on deltas
// and uniquely tagged messages rather than absolute ring contents.

func TestFlightRecordAndCollect(t *testing.T) {
	before := flight.next.Load()
	tag := fmt.Sprintf("flight-test-%d", before)
	RecordEvent(FlightRemaster, 2, "moved %d partitions (%s)", 3, tag)
	RecordEvent(FlightFailover, 1, "site 1 down (%s)", tag)
	if got := flight.next.Load(); got != before+2 {
		t.Fatalf("flight events = %d, want %d", got, before+2)
	}

	events := FlightEvents()
	var mine []FlightEvent
	for _, ev := range events {
		if strings.Contains(ev.Msg, tag) {
			mine = append(mine, ev)
		}
	}
	if len(mine) != 2 {
		t.Fatalf("found %d tagged events, want 2", len(mine))
	}
	if mine[0].Kind != FlightRemaster || mine[0].Site != 2 || mine[0].Msg != "moved 3 partitions ("+tag+")" {
		t.Fatalf("first event wrong: %+v", mine[0])
	}
	if mine[1].Kind != FlightFailover || mine[1].Site != 1 {
		t.Fatalf("second event wrong: %+v", mine[1])
	}
	// Oldest-first ordering by dense sequence numbers.
	if mine[0].Seq >= mine[1].Seq || mine[0].At.IsZero() {
		t.Fatalf("events out of order or unstamped: %+v", mine)
	}
	for i := 1; i < len(events); i++ {
		if events[i-1].Seq >= events[i].Seq {
			t.Fatalf("FlightEvents not sorted by Seq at %d", i)
		}
	}
}

func TestFlightSnapshotToDisk(t *testing.T) {
	dir := t.TempDir()
	if err := SetFlightDir(dir); err != nil {
		t.Fatal(err)
	}
	defer SetFlightDir("")
	if FlightDir() != dir {
		t.Fatalf("FlightDir = %q, want %q", FlightDir(), dir)
	}

	tag := fmt.Sprintf("snapshot-test-%d", flight.next.Load())
	RecordEvent(FlightRecovery, 0, "recovered (%s)", tag)
	path, err := SnapshotFlight("unit")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir || !strings.Contains(filepath.Base(path), "-unit.json") {
		t.Fatalf("snapshot path %q: want flight-<n>-unit.json under %q", path, dir)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Reason string        `json:"reason"`
		Events []FlightEvent `json:"events"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
	if snap.Reason != "unit" {
		t.Fatalf("snapshot reason = %q, want unit", snap.Reason)
	}
	found := false
	for _, ev := range snap.Events {
		if strings.Contains(ev.Msg, tag) && ev.Kind == FlightRecovery {
			found = true
		}
	}
	if !found {
		t.Fatal("snapshot missing the event recorded before it")
	}
}

func TestFlightSnapshotDisabled(t *testing.T) {
	if err := SetFlightDir(""); err != nil {
		t.Fatal(err)
	}
	path, err := SnapshotFlight("nowhere")
	if err != nil || path != "" {
		t.Fatalf("disabled snapshot = (%q, %v), want empty no-op", path, err)
	}
}

func TestFlightInstrument(t *testing.T) {
	reg := NewRegistry()
	InstrumentFlight(reg)
	before, _ := reg.Snapshot().Value("dynamast_flightrec_events_total", L("kind", FlightWALTruncate))
	RecordEvent(FlightWALTruncate, 3, "truncated")
	after, ok := reg.Snapshot().Value("dynamast_flightrec_events_total", L("kind", FlightWALTruncate))
	if !ok || after != before+1 {
		t.Fatalf("wal_truncate counter %v -> %v (ok=%v), want +1", before, after, ok)
	}
	// Every taxonomy kind is pre-registered even if it never fired.
	for _, kind := range flightKinds {
		if _, ok := reg.Snapshot().Value("dynamast_flightrec_events_total", L("kind", kind)); !ok {
			t.Errorf("kind %q not pre-registered", kind)
		}
	}
	if _, ok := reg.Snapshot().Value("dynamast_flightrec_snapshots_total"); !ok {
		t.Error("snapshot counter not registered")
	}
}
