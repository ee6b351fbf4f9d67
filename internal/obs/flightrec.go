package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Flight recorder: an always-on, process-global, fixed-size ring of
// structured operational events — the black box a chaos-run postmortem
// reads instead of scraping logs. Writers are lock-free (one atomic add,
// one atomic pointer store), so protocol hot paths can record events
// unconditionally; readers assemble a consistent-enough snapshot by
// collecting the ring and sorting by sequence number. The ring is global
// rather than per-cluster because the events it captures (RPC retries,
// injected faults, WAL truncations) originate in layers that have no
// cluster handle.

// FlightEvent is one recorded operational event.
type FlightEvent struct {
	// Seq is the process-lifetime sequence number, dense from 1.
	Seq uint64 `json:"seq"`
	// At is the wall-clock time of the event.
	At time.Time `json:"at"`
	// Kind is the event taxonomy entry (Flight* constants).
	Kind string `json:"kind"`
	// Site is the site the event concerns; SelectorSite for process- or
	// control-plane-level events.
	Site int `json:"site"`
	// Msg is the human-readable detail line.
	Msg string `json:"msg"`
}

// The event taxonomy. Every kind is pre-registered in the
// dynamast_flightrec_events_total metric family.
const (
	// FlightRemaster marks a mastership transfer chain (release+grant).
	FlightRemaster = "remaster"
	// FlightFailover marks a completed site failover.
	FlightFailover = "failover"
	// FlightFaultInject marks an injected drop/error fault reaching a caller.
	FlightFaultInject = "fault_inject"
	// FlightRPCRetry marks an RPC attempt being retried.
	FlightRPCRetry = "rpc_retry"
	// FlightWALTruncate marks a WAL prefix truncation.
	FlightWALTruncate = "wal_truncate"
	// FlightSLOBreach marks a windowed SLO threshold breach.
	FlightSLOBreach = "slo_breach"
	// FlightRecovery marks a completed crash recovery.
	FlightRecovery = "recovery"
	// FlightLeaderChange marks a selector leadership change (lease expiry
	// promotion of a standby, or the initial acquisition).
	FlightLeaderChange = "leader_change"
	// FlightPlacement marks a replica-set change (replica add or drop) under
	// partial replication.
	FlightPlacement = "placement"
)

// flightKinds lists the taxonomy for metric pre-registration.
var flightKinds = []string{
	FlightRemaster, FlightFailover, FlightFaultInject, FlightRPCRetry,
	FlightWALTruncate, FlightSLOBreach, FlightRecovery, FlightLeaderChange,
	FlightPlacement,
}

// flightRingSize is the retained-event capacity. 4096 events outlast any
// chaos run's interesting tail while staying ~a few hundred KB.
const flightRingSize = 4096

// flight is the process-global recorder state.
var flight struct {
	ring [flightRingSize]atomic.Pointer[FlightEvent]
	next atomic.Uint64

	kindMu sync.Mutex
	kinds  map[string]*atomic.Uint64

	dirMu sync.Mutex
	dir   string

	snapshots atomic.Uint64
}

func init() {
	flight.kinds = make(map[string]*atomic.Uint64, len(flightKinds))
	for _, k := range flightKinds {
		flight.kinds[k] = new(atomic.Uint64)
	}
}

// flightKindCounter returns the lifetime counter for kind, creating one for
// kinds outside the fixed taxonomy.
func flightKindCounter(kind string) *atomic.Uint64 {
	flight.kindMu.Lock()
	defer flight.kindMu.Unlock()
	c := flight.kinds[kind]
	if c == nil {
		c = new(atomic.Uint64)
		flight.kinds[kind] = c
	}
	return c
}

// RecordEvent appends one event to the flight ring. Safe for concurrent
// use from any goroutine; never blocks beyond the Sprintf.
func RecordEvent(kind string, site int, format string, args ...any) {
	ev := &FlightEvent{
		At:   time.Now(),
		Kind: kind,
		Site: site,
		Msg:  fmt.Sprintf(format, args...),
	}
	ev.Seq = flight.next.Add(1)
	flight.ring[(ev.Seq-1)%flightRingSize].Store(ev)
	flightKindCounter(kind).Add(1)
}

// FlightEvents returns the retained events, oldest first. Concurrent
// writers may overwrite slots mid-collection; the per-event pointers keep
// every returned event internally consistent.
func FlightEvents() []FlightEvent {
	out := make([]FlightEvent, 0, flightRingSize)
	for i := range flight.ring {
		if ev := flight.ring[i].Load(); ev != nil {
			out = append(out, *ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// SetFlightDir enables disk snapshots (SnapshotFlight) under dir, creating
// it if needed. An empty dir disables snapshots.
func SetFlightDir(dir string) error {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	flight.dirMu.Lock()
	flight.dir = dir
	flight.dirMu.Unlock()
	return nil
}

// FlightDir returns the configured snapshot directory ("" = disabled).
func FlightDir() string {
	flight.dirMu.Lock()
	defer flight.dirMu.Unlock()
	return flight.dir
}

// flightSnapshot is the on-disk snapshot schema.
type flightSnapshot struct {
	Reason string        `json:"reason"`
	At     time.Time     `json:"at"`
	Events []FlightEvent `json:"events"`
}

// SnapshotFlight dumps the current ring to a JSON file in the configured
// snapshot directory, named flight-<n>-<reason>.json. It returns the path
// written, or ("", nil) when no directory is configured — callers invoke it
// unconditionally on failover/recovery/panic.
func SnapshotFlight(reason string) (string, error) {
	dir := FlightDir()
	if dir == "" {
		return "", nil
	}
	n := flight.snapshots.Add(1)
	path := filepath.Join(dir, fmt.Sprintf("flight-%d-%s.json", n, reason))
	data, err := json.MarshalIndent(flightSnapshot{
		Reason: reason,
		At:     time.Now(),
		Events: FlightEvents(),
	}, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// InstrumentFlight registers the dynamast_flightrec_* metrics in reg:
// the lifetime event count, the per-kind breakdown over the fixed
// taxonomy, and the snapshot count.
func InstrumentFlight(reg *Registry) {
	if reg == nil {
		return
	}
	reg.Help("dynamast_flightrec_events_total", "Flight-recorder events recorded, by event kind.")
	reg.Help("dynamast_flightrec_snapshots_total", "Flight-recorder disk snapshots written.")
	for _, k := range flightKinds {
		c := flightKindCounter(k)
		reg.Func("dynamast_flightrec_events_total", KindCounter,
			func() float64 { return float64(c.Load()) }, L("kind", k))
	}
	reg.Func("dynamast_flightrec_snapshots_total", KindCounter,
		func() float64 { return float64(flight.snapshots.Load()) })
}
