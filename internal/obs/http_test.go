package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testHandler builds a Handler over a populated registry and span
// recorder, returning the recorder for assertions. The recorder holds three
// traces totalling 1, 3 and 2 ms, recorded in that order.
func testHandler(t *testing.T) (http.Handler, *SpanRecorder) {
	t.Helper()
	reg := NewRegistry()
	reg.Counter("dynamast_test_commits_total", L("site", "0")).Add(7)
	reg.Help("dynamast_test_commits_total", "Commits at site 0.")
	reg.Gauge("dynamast_test_mastered_partitions").Set(12)
	reg.Histogram("dynamast_test_txn_seconds").Observe(0.002)

	sr := NewSpanRecorder(16)
	for i, ms := range []int{1, 3, 2} {
		sc := NewTraceContext()
		start := time.Now()
		sr.Record(Span{Trace: sc.Trace, ID: sc.Span, Name: "txn", Site: SelectorSite,
			Start: start, Dur: time.Duration(ms) * time.Millisecond})
		sr.Record(Span{Trace: sc.Trace, Parent: sc.Span, Name: "route", Site: SelectorSite,
			Start: start, Dur: time.Microsecond})
		sr.Record(Span{Trace: sc.Trace, Parent: sc.Span, Name: "execute", Site: i,
			Start: start, Dur: time.Microsecond})
	}
	return Handler(reg, sr), sr
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

func TestHandlerMetricsFormat(t *testing.T) {
	h, _ := testHandler(t)
	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q, want Prometheus text exposition", ct)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `dynamast_test_commits_total{site="0"} 7`) {
		t.Fatalf("/metrics missing labelled counter; body:\n%s", body)
	}
	if !strings.Contains(body, "# HELP dynamast_test_commits_total Commits at site 0.") {
		t.Fatal("/metrics missing HELP line")
	}
	if !strings.Contains(body, "# TYPE dynamast_test_commits_total counter") {
		t.Fatal("/metrics missing TYPE line")
	}
	if !strings.Contains(body, "dynamast_test_mastered_partitions 12") {
		t.Fatal("/metrics missing gauge sample")
	}
	if !strings.Contains(body, "dynamast_test_txn_seconds_bucket") ||
		!strings.Contains(body, `le="+Inf"`) {
		t.Fatal("/metrics missing histogram le-series")
	}
}

func TestHandlerTraces(t *testing.T) {
	h, _ := testHandler(t)
	list := func(path string) []TraceJSON {
		t.Helper()
		rec := get(t, h, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type = %q, want application/json", ct)
		}
		var out []TraceJSON
		if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	totals := func(l []TraceJSON) []time.Duration {
		out := make([]time.Duration, len(l))
		for i, tr := range l {
			out[i] = time.Duration(tr.TotalNS)
		}
		return out
	}
	ms := time.Millisecond

	all := list("/debug/traces")
	// Newest first: the last-recorded trace (site 2, total 2ms) leads.
	if got := totals(all); fmt.Sprint(got) != fmt.Sprint([]time.Duration{2 * ms, 3 * ms, ms}) {
		t.Fatalf("newest-first totals = %v", got)
	}
	if all[0].Site != 2 || all[0].Stages["route"] != int64(time.Microsecond) {
		t.Fatalf("first trace = %+v, want site 2 with a 1µs route stage", all[0])
	}
	if got := list("/debug/traces?n=2"); len(got) != 2 {
		t.Fatalf("?n=2 returned %d traces", len(got))
	}
	for path, want := range map[string][]time.Duration{
		"/debug/traces?slowest=2":        {3 * ms, 2 * ms},
		"/debug/traces?sort=slow":        {3 * ms, 2 * ms, ms},
		"/debug/traces?sort=slow&n=1":    {3 * ms},
		"/debug/traces?slowest=0&n=2":    {3 * ms, 2 * ms},
		"/debug/traces?slowest=5&sort=x": {3 * ms, 2 * ms, ms},
	} {
		if got := totals(list(path)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s totals = %v, want %v", path, got, want)
		}
	}
}

func TestHandlerTracesBadParams(t *testing.T) {
	h, _ := testHandler(t)
	for _, path := range []string{
		"/debug/traces?n=abc",
		"/debug/traces?n=-1",
		"/debug/traces?slowest=xyz",
		"/debug/traces?slowest=-5",
		"/debug/spans",
		"/debug/spans?n=abc",
		"/debug/spans?n=-2",
		"/debug/spans?trace=nothex",
	} {
		if rec := get(t, h, path); rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, rec.Code)
		}
	}
}

func TestHandlerSpans(t *testing.T) {
	h, sr := testHandler(t)
	sc := NewTraceContext()
	sr.Record(Span{Trace: sc.Trace, ID: sc.Span, Name: "txn", Site: SelectorSite,
		Start: time.Now(), Dur: 2 * time.Millisecond})
	sr.Record(Span{Trace: sc.Trace, Parent: sc.Span, Name: "execute", Site: 1,
		Start: time.Now(), Dur: time.Millisecond})

	wantID := fmt.Sprintf("%016x", sc.Trace)
	rec := get(t, h, "/debug/spans?trace="+wantID)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/spans?trace= = %d, want 200", rec.Code)
	}
	var spans []SpanJSON
	if err := json.NewDecoder(rec.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "txn" || spans[0].Parent != "" || spans[0].Site != SelectorSite {
		t.Fatalf("root span JSON wrong: %+v", spans[0])
	}
	if spans[1].Parent != fmt.Sprintf("%016x", sc.Span) {
		t.Fatalf("child parent = %q, want root's hex id", spans[1].Parent)
	}
	if spans[1].DurNS != int64(time.Millisecond) || spans[1].Dur != "1ms" {
		t.Fatalf("child durations wrong: %+v", spans[1])
	}

	if rec := get(t, h, "/debug/spans?trace=00000000deadbeef"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown trace = %d, want 404", rec.Code)
	}
}

func TestHandlerFlightRecorder(t *testing.T) {
	h, _ := testHandler(t)
	tag := fmt.Sprintf("http-test-%d", flight.next.Load())
	RecordEvent(FlightRPCRetry, SelectorSite, "retrying (%s)", tag)

	rec := get(t, h, "/debug/flightrecorder")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/flightrecorder = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var events []FlightEvent
	if err := json.NewDecoder(rec.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range events {
		if ev.Kind == FlightRPCRetry && strings.Contains(ev.Msg, tag) {
			found = true
		}
	}
	if !found {
		t.Fatal("recorded event missing from /debug/flightrecorder")
	}
}

// TestHandlerNilRecorder: without a span recorder the trace list is an
// empty JSON list and no trace is retained.
func TestHandlerNilRecorder(t *testing.T) {
	h := Handler(NewRegistry(), nil)
	if rec := get(t, h, "/metrics"); rec.Code != http.StatusOK {
		t.Errorf("GET /metrics = %d, want 200", rec.Code)
	}
	rec := get(t, h, "/debug/traces")
	if rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "[]" {
		t.Errorf("GET /debug/traces = %d %q, want 200 []", rec.Code, rec.Body.String())
	}
	if rec := get(t, h, "/debug/spans?trace=00000000deadbeef"); rec.Code != http.StatusNotFound {
		t.Errorf("GET /debug/spans?trace= = %d, want 404", rec.Code)
	}
}
