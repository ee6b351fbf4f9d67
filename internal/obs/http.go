package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Handler serves the observability endpoints over HTTP:
//
//	/metrics               Prometheus text exposition of the registry
//	/debug/traces          the retained sampled traces with their
//	                       span-derived stages, newest first (?n=50 limits,
//	                       ?slowest=50 or ?sort=slow orders by total
//	                       latency)
//	/debug/spans           ?trace=<hex id>: one trace's full span list
//	/debug/flightrecorder  the process flight-recorder ring as JSON
//
// dynamastd mounts it behind the -metrics-listen flag. The SpanRecorder may
// be nil (/debug/traces serves an empty list).
func Handler(r *Registry, sr *SpanRecorder) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		n, ok := intParam(w, q.Get("n"), "n")
		if !ok {
			return
		}
		slow := q.Get("sort") == "slow"
		if s := q.Get("slowest"); s != "" {
			sn, ok := intParam(w, s, "slowest")
			if !ok {
				return
			}
			if sn > 0 {
				n = sn
			}
			slow = true
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(sr.Traces(n, slow))
	})
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, req *http.Request) {
		id := req.URL.Query().Get("trace")
		trace, err := strconv.ParseUint(id, 16, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad trace id %q: want ?trace=<hex id> (list traces at /debug/traces)", id), http.StatusBadRequest)
			return
		}
		spans := sr.Spans(trace)
		if spans == nil {
			http.Error(w, fmt.Sprintf("trace %s not retained", id), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(SpansJSON(spans))
	})
	mux.HandleFunc("/debug/flightrecorder", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(FlightEvents())
	})
	return mux
}

// intParam parses an optional non-negative integer query parameter,
// answering 400 (and returning ok=false) on malformed input. An empty
// value is 0 — "no limit" for the list endpoints.
func intParam(w http.ResponseWriter, val, name string) (int, bool) {
	if val == "" {
		return 0, true
	}
	n, err := strconv.Atoi(val)
	if err != nil || n < 0 {
		http.Error(w, fmt.Sprintf("bad parameter %s=%q: want a non-negative integer", name, val), http.StatusBadRequest)
		return 0, false
	}
	return n, true
}

// SpanJSON is the wire form of a Span. Trace and span ids render as hex
// strings: uint64 values overflow the 2^53 integer precision of JSON
// consumers.
type SpanJSON struct {
	Trace  string    `json:"trace"`
	ID     string    `json:"id"`
	Parent string    `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Site   int       `json:"site"`
	Start  time.Time `json:"start"`
	DurNS  int64     `json:"dur_ns"`
	Dur    string    `json:"dur"`
}

// SpansJSON converts spans to their wire form.
func SpansJSON(spans []Span) []SpanJSON {
	out := make([]SpanJSON, len(spans))
	for i, sp := range spans {
		out[i] = SpanJSON{
			Trace: fmt.Sprintf("%016x", sp.Trace),
			ID:    fmt.Sprintf("%016x", sp.ID),
			Name:  sp.Name,
			Site:  sp.Site,
			Start: sp.Start,
			DurNS: int64(sp.Dur),
			Dur:   sp.Dur.Round(time.Microsecond).String(),
		}
		if sp.Parent != 0 {
			out[i].Parent = fmt.Sprintf("%016x", sp.Parent)
		}
	}
	return out
}
