package obs

import (
	"fmt"
	"testing"
	"time"
)

// at returns base+us microseconds.
func at(base time.Time, us int) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

// recordUpdate records the span tree a session and its sites leave for one
// update: t0..t8 are the session's timestamps in µs after base, chains the
// [start, end) windows of release/grant spans, and wal the wal_flush window
// inside [t6, t7).
func recordUpdate(r *SpanRecorder, base time.Time, ts [9]int, chains [][2]int, wal [2]int, applies ...int) SpanContext {
	sc := NewTraceContext()
	routeID, commitID := NewSpanID(), NewSpanID()
	span := func(id, parent uint64, name string, site, from, to int) {
		r.Record(Span{Trace: sc.Trace, ID: id, Parent: parent, Name: name, Site: site,
			Start: at(base, from), Dur: us(to - from)})
	}
	span(sc.Span, 0, "txn", SelectorSite, ts[0], ts[8])
	span(routeID, sc.Span, "route", SelectorSite, ts[1], ts[2])
	for i, c := range chains {
		name := "release"
		if i%2 == 1 {
			name = "grant"
		}
		span(0, routeID, name, i%2, c[0], c[1])
	}
	span(0, sc.Span, "begin", 1, ts[4], ts[5])
	span(0, sc.Span, "execute", 1, ts[5], ts[6])
	span(commitID, sc.Span, "commit", 1, ts[6], ts[7])
	span(0, commitID, "wal_flush", 1, wal[0], wal[1])
	r.RegisterStamp(1, 1, SpanContext{Trace: sc.Trace, Span: commitID})
	for i, lag := range applies {
		r.RefreshApplied(1, 1, 2+i, us(lag), at(base, ts[7]+lag))
	}
	return sc
}

func only(t *testing.T, r *SpanRecorder) TraceJSON {
	t.Helper()
	list := r.Traces(0, false)
	if len(list) != 1 {
		t.Fatalf("recorder lists %d traces, want 1", len(list))
	}
	return list[0]
}

func checkStages(t *testing.T, got TraceJSON, want map[string]time.Duration) {
	t.Helper()
	for name, d := range want {
		if got.Stages[name] != int64(d) {
			t.Errorf("stage %s = %v, want %v", name, time.Duration(got.Stages[name]), d)
		}
	}
}

// TestTraceStagesOneRemasterChain holds the span-derived stages to what the
// session computes from the same timestamps: route is t1→t2 minus the
// remaster wait (the chain's release start to grant end), begin t4→t5,
// execute t5→t6, commit t6→t7 minus the WAL append, wal_publish the append.
func TestTraceStagesOneRemasterChain(t *testing.T) {
	r := NewSpanRecorder(4)
	base := time.Now()
	ts := [9]int{0, 10, 100, 110, 120, 150, 190, 230, 240}
	sc := recordUpdate(r, base, ts, [][2]int{{20, 50}, {50, 90}}, [2]int{200, 225}, 300)
	got := only(t, r)
	remasterWait := us(90 - 20)
	checkStages(t, got, map[string]time.Duration{
		"route":         us(ts[2]-ts[1]) - remasterWait,
		"remaster":      remasterWait,
		"begin":         us(ts[5] - ts[4]),
		"execute":       us(ts[6] - ts[5]),
		"commit":        us(ts[7]-ts[6]) - us(25),
		"wal_publish":   us(25),
		"refresh_apply": us(300),
	})
	if got.Trace != fmt.Sprintf("%016x", sc.Trace) || got.Site != 1 || !got.Remastered || got.Spans != 9 {
		t.Fatalf("headline = %+v", got)
	}
	if got.TotalNS != int64(us(ts[8]-ts[0])) || !got.Start.Equal(base) {
		t.Fatalf("window = %v from %v, want %v from %v", time.Duration(got.TotalNS), got.Start, us(ts[8]), base)
	}
}

// TestTraceStagesParallelChains: two chains moving partitions off two
// sources overlap in time, so remaster is their window, not their sum, and
// route stays non-negative.
func TestTraceStagesParallelChains(t *testing.T) {
	r := NewSpanRecorder(4)
	ts := [9]int{0, 10, 70, 70, 80, 90, 100, 120, 130}
	// Chain A: release 15–35, grant 35–65. Chain B: release 20–40, grant 40–60.
	// The legs sum to 90µs against a 60µs route span.
	recordUpdate(r, time.Now(), ts, [][2]int{{15, 35}, {35, 65}, {20, 40}, {40, 60}}, [2]int{105, 115})
	got := only(t, r)
	checkStages(t, got, map[string]time.Duration{"remaster": us(50), "route": us(10)})
	for name, ns := range got.Stages {
		if ns < 0 {
			t.Errorf("stage %s negative: %d", name, ns)
		}
	}
}

func TestTraceStagesNoRemaster(t *testing.T) {
	r := NewSpanRecorder(4)
	ts := [9]int{0, 10, 30, 30, 40, 50, 60, 80, 90}
	recordUpdate(r, time.Now(), ts, nil, [2]int{65, 75})
	got := only(t, r)
	if got.Remastered {
		t.Fatal("trace without release/grant spans reported as remastered")
	}
	checkStages(t, got, map[string]time.Duration{"remaster": 0, "route": us(20)})
}

// TestTraceStagesRefreshApplyMax: every replica records a refresh_apply
// span; the stage is the slowest one.
func TestTraceStagesRefreshApplyMax(t *testing.T) {
	r := NewSpanRecorder(4)
	ts := [9]int{0, 10, 30, 30, 40, 50, 60, 80, 90}
	recordUpdate(r, time.Now(), ts, nil, [2]int{65, 75}, 400, 250)
	checkStages(t, only(t, r), map[string]time.Duration{"refresh_apply": us(400)})
}

func TestTracesEvictedAbsent(t *testing.T) {
	r := NewSpanRecorder(2)
	ts := [9]int{0, 10, 30, 30, 40, 50, 60, 80, 90}
	var ids []string
	for i := 0; i < 3; i++ {
		sc := recordUpdate(r, time.Now(), ts, nil, [2]int{65, 75})
		ids = append(ids, fmt.Sprintf("%016x", sc.Trace))
	}
	list := r.Traces(0, false)
	if len(list) != 2 || list[0].Trace != ids[2] || list[1].Trace != ids[1] {
		t.Fatalf("traces = %+v, want the two newest %v", list, ids[1:])
	}
	for _, tr := range r.Traces(0, true) {
		if tr.Trace == ids[0] {
			t.Fatal("evicted trace listed")
		}
	}
}
