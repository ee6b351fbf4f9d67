package obs

import (
	"fmt"
	"time"
)

// Stage is one phase of an update transaction's lifecycle, in execution
// order. The stages mirror the paper's latency-breakdown categories
// (Figure 7) extended with the asynchronous tail: WAL publication and the
// replicas' refresh application. Sessions feed them to the
// dynamast_txn_stage_seconds histograms for every update; a sampled
// transaction's span tree yields the same stages for that one transaction
// (see TraceJSON).
type Stage int

const (
	// StageRoute is the selector's routing decision, excluding any
	// remastering wait.
	StageRoute Stage = iota
	// StageRemaster is the release/grant RPC wait, zero when the write set
	// was already single-sited.
	StageRemaster
	// StageBegin is the site's begin: write-set lock acquisition plus the
	// session-freshness wait.
	StageBegin
	// StageExecute is the stored procedure, including its modelled CPU.
	StageExecute
	// StageCommit is the local commit critical section, excluding the
	// update-log append.
	StageCommit
	// StageWALPublish is the update-log append (redo + propagation
	// publish).
	StageWALPublish
	// StageRefreshApply is the asynchronous tail: time from log publish
	// until a replica applied the transaction as a refresh transaction
	// (the slowest replica observed so far).
	StageRefreshApply

	NumStages
)

// stageNames holds the label values used in metrics and trace JSON.
var stageNames = [NumStages]string{
	"route", "remaster", "begin", "execute", "commit", "wal_publish", "refresh_apply",
}

// String names the stage.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// Stages lists all lifecycle stages in order.
func Stages() []Stage {
	out := make([]Stage, NumStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// DefaultTraceRing is the default number of sampled traces a SpanRecorder
// retains.
const DefaultTraceRing = 256

// TraceJSON is the wire form of one retained trace: its hex id, the site
// that executed it, whether routing remastered, the span count, the trace's
// window, and the lifecycle stages derived from its span tree, in
// nanoseconds.
type TraceJSON struct {
	Trace      string           `json:"trace"`
	Site       int              `json:"site"`
	Remastered bool             `json:"remastered"`
	Spans      int              `json:"spans"`
	Start      time.Time        `json:"start"`
	TotalNS    int64            `json:"total_ns"`
	Total      string           `json:"total"`
	Stages     map[string]int64 `json:"stages_ns"`
}

// traceJSON derives a trace's headline from its spans. Total is the root
// txn span; the stages come from span names:
//
//	route          the route span minus its release/grant window
//	remaster       earliest release/grant start to latest release/grant end
//	begin, execute their own spans
//	commit         the commit span minus wal_flush
//	wal_publish    wal_flush
//	refresh_apply  the largest refresh_apply span (the slowest replica)
//
// Parallel remaster chains overlap, so remaster is their window, not their
// sum; route is what the window leaves of the route span.
func traceJSON(trace uint64, spans []Span) TraceJSON {
	out := TraceJSON{Trace: fmt.Sprintf("%016x", trace), Site: SelectorSite, Spans: len(spans)}
	var st [NumStages]time.Duration
	var route, commit, total time.Duration
	var remLo, remHi time.Time
	for _, sp := range spans {
		if out.Start.IsZero() || sp.Start.Before(out.Start) {
			out.Start = sp.Start
		}
		switch sp.Name {
		case "txn":
			total = sp.Dur
		case "route":
			route += sp.Dur
		case "release", "grant":
			out.Remastered = true
			if remLo.IsZero() || sp.Start.Before(remLo) {
				remLo = sp.Start
			}
			if end := sp.Start.Add(sp.Dur); end.After(remHi) {
				remHi = end
			}
		case "begin":
			st[StageBegin] += sp.Dur
		case "execute":
			st[StageExecute] += sp.Dur
			out.Site = sp.Site
		case "commit":
			commit += sp.Dur
		case "wal_flush":
			st[StageWALPublish] += sp.Dur
		case "refresh_apply":
			st[StageRefreshApply] = max(st[StageRefreshApply], sp.Dur)
		}
	}
	st[StageRemaster] = remHi.Sub(remLo)
	st[StageRoute] = max(route-st[StageRemaster], 0)
	st[StageCommit] = max(commit-st[StageWALPublish], 0)
	out.TotalNS = int64(total)
	out.Total = total.Round(time.Microsecond).String()
	out.Stages = make(map[string]int64, NumStages)
	for s, d := range st {
		out.Stages[Stage(s).String()] = int64(d)
	}
	return out
}
