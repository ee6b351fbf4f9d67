package obs

import (
	"fmt"
	"testing"
	"time"
)

func TestSpanContextSampled(t *testing.T) {
	var zero SpanContext
	if zero.Sampled() {
		t.Fatal("zero SpanContext must be unsampled")
	}
	if c := zero.Child(); c != (SpanContext{}) {
		t.Fatalf("Child of unsampled context = %+v, want zero", c)
	}
	sc := NewTraceContext()
	if !sc.Sampled() || sc.Trace == 0 || sc.Span == 0 {
		t.Fatalf("NewTraceContext returned %+v, want non-zero ids", sc)
	}
	child := sc.Child()
	if child.Trace != sc.Trace {
		t.Fatalf("Child changed trace id: %x != %x", child.Trace, sc.Trace)
	}
	if child.Span == sc.Span || child.Span == 0 {
		t.Fatalf("Child span id %x should be fresh and non-zero", child.Span)
	}
}

func TestSpanIDsUnique(t *testing.T) {
	seen := make(map[uint64]bool, 10000)
	for i := 0; i < 10000; i++ {
		id := NewSpanID()
		if id == 0 {
			t.Fatal("NewSpanID returned 0")
		}
		if seen[id] {
			t.Fatalf("duplicate span id %x after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestSamplerEveryN(t *testing.T) {
	if NewSampler(0) != nil || NewSampler(-3) != nil {
		t.Fatal("NewSampler with n <= 0 must return nil")
	}
	var nilS *Sampler
	if nilS.Sample() {
		t.Fatal("nil sampler must never sample")
	}
	s := NewSampler(4)
	hits := 0
	for i := 0; i < 400; i++ {
		if s.Sample() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("1-in-4 sampler hit %d/400 times, want 100", hits)
	}
	always := NewSampler(1)
	for i := 0; i < 5; i++ {
		if !always.Sample() {
			t.Fatal("1-in-1 sampler must always sample")
		}
	}
}

func TestSpanRecorderRecordAndSpans(t *testing.T) {
	r := NewSpanRecorder(8)
	sc := NewTraceContext()
	start := time.Now()
	r.Record(Span{Trace: sc.Trace, ID: sc.Span, Name: "txn", Site: SelectorSite, Start: start, Dur: time.Millisecond})
	r.Record(Span{Trace: sc.Trace, Parent: sc.Span, Name: "execute", Site: 2, Start: start, Dur: time.Microsecond})
	r.Record(Span{Name: "ignored"}) // zero trace id: dropped silently

	got := r.Spans(sc.Trace)
	if len(got) != 2 {
		t.Fatalf("Spans returned %d spans, want 2", len(got))
	}
	if got[0].Name != "txn" || got[0].ID != sc.Span || got[0].Parent != 0 {
		t.Fatalf("root span wrong: %+v", got[0])
	}
	if got[1].Name != "execute" || got[1].Parent != sc.Span || got[1].Site != 2 {
		t.Fatalf("child span wrong: %+v", got[1])
	}
	if got[1].ID == 0 {
		t.Fatal("Record must assign an id to spans without one")
	}
	if r.Spans(0xdeadbeef) != nil {
		t.Fatal("unknown trace must return nil")
	}
	traces, spans, dropped := r.traces.Load(), r.spans.Load(), r.dropped.Load()
	if traces != 1 || spans != 2 || dropped != 0 {
		t.Fatalf("Counts = (%d, %d, %d), want (1, 2, 0)", traces, spans, dropped)
	}
}

func TestSpanRecorderNilSafe(t *testing.T) {
	var r *SpanRecorder
	r.Record(Span{Trace: 1, Name: "x"})
	r.RegisterStamp(0, 1, SpanContext{Trace: 1, Span: 2})
	r.RefreshApplied(0, 1, 1, time.Millisecond, time.Now())
	if r.Spans(1) != nil || len(r.Traces(0, false)) != 0 {
		t.Fatal("nil recorder must return empty lists")
	}
	r.Instrument(nil)
}

func TestSpanRecorderPerTraceCap(t *testing.T) {
	r := NewSpanRecorder(4)
	sc := NewTraceContext()
	for i := 0; i < maxSpansPerTrace+10; i++ {
		r.Record(Span{Trace: sc.Trace, Name: "s"})
	}
	if got := len(r.Spans(sc.Trace)); got != maxSpansPerTrace {
		t.Fatalf("trace retained %d spans, want cap %d", got, maxSpansPerTrace)
	}
	dropped := r.dropped.Load()
	if dropped != 10 {
		t.Fatalf("dropped = %d, want 10", dropped)
	}
}

func TestSpanRecorderEviction(t *testing.T) {
	r := NewSpanRecorder(2)
	t1, t2, t3 := NewTraceContext(), NewTraceContext(), NewTraceContext()
	r.Record(Span{Trace: t1.Trace, ID: t1.Span, Name: "a"})
	r.Record(Span{Trace: t2.Trace, ID: t2.Span, Name: "b"})
	r.Record(Span{Trace: t3.Trace, ID: t3.Span, Name: "c"}) // evicts t1
	if r.Spans(t1.Trace) != nil {
		t.Fatal("oldest trace should have been evicted")
	}
	if r.Spans(t2.Trace) == nil || r.Spans(t3.Trace) == nil {
		t.Fatal("newer traces must survive eviction")
	}
	// A late span for the evicted trace re-admits it as a new trace (evicting
	// t2 in turn) rather than corrupting the index.
	r.Record(Span{Trace: t1.Trace, Name: "late"})
	if got := r.Spans(t1.Trace); len(got) != 1 || got[0].Name != "late" {
		t.Fatalf("re-admitted trace spans = %+v, want just the late span", got)
	}
}

func TestRefreshAppliedParentsOnCommitSpan(t *testing.T) {
	r := NewSpanRecorder(8)
	sc := NewTraceContext()
	commitID := NewSpanID()
	r.Record(Span{Trace: sc.Trace, ID: commitID, Parent: sc.Span, Name: "commit", Site: 0})
	r.RegisterStamp(0, 42, SpanContext{Trace: sc.Trace, Span: commitID})

	now := time.Now()
	r.RefreshApplied(0, 42, 3, 5*time.Millisecond, now)
	r.RefreshApplied(0, 42, 1, 2*time.Millisecond, now)
	r.RefreshApplied(0, 99, 1, time.Millisecond, now) // unknown stamp: ignored

	spans := r.Spans(sc.Trace)
	var applies []Span
	for _, sp := range spans {
		if sp.Name == "refresh_apply" {
			applies = append(applies, sp)
		}
	}
	if len(applies) != 2 {
		t.Fatalf("got %d refresh_apply spans, want 2", len(applies))
	}
	for _, sp := range applies {
		if sp.Parent != commitID {
			t.Fatalf("refresh_apply parent %x, want commit span %x", sp.Parent, commitID)
		}
	}
	if applies[0].Site != 3 || applies[0].Dur != 5*time.Millisecond {
		t.Fatalf("first apply span wrong: %+v", applies[0])
	}
	if want := now.Add(-5 * time.Millisecond); !applies[0].Start.Equal(want) {
		t.Fatalf("apply span start %v, want now-lag %v", applies[0].Start, want)
	}
}

// TestSpanStampEvictionGuard is the regression test for the byStamp
// slot-reuse hazard: when a trace is evicted, only stamp entries that still
// point at the evicted occupant may be deleted. A stamp re-registered by a
// newer trace (same origin site restarting its commit sequence) must keep
// routing refresh-apply spans to the newer trace.
func TestSpanStampEvictionGuard(t *testing.T) {
	r := NewSpanRecorder(2)
	old := NewTraceContext()
	r.Record(Span{Trace: old.Trace, ID: old.Span, Name: "txn"})
	r.RegisterStamp(0, 7, SpanContext{Trace: old.Trace, Span: old.Span})

	// A newer trace claims the same commit stamp (site 0, seq 7) before the
	// old trace is evicted — e.g. the origin site crashed and restarted its
	// sequence counter.
	newer := NewTraceContext()
	newerCommit := NewSpanID()
	r.Record(Span{Trace: newer.Trace, ID: newer.Span, Name: "txn"})
	r.RegisterStamp(0, 7, SpanContext{Trace: newer.Trace, Span: newerCommit})

	// Fill the 2-slot ring until the OLD trace's slot is reused. Its eviction
	// walks its registered stamps; the (0,7) entry now belongs to `newer` and
	// must survive.
	third := NewTraceContext()
	r.Record(Span{Trace: third.Trace, ID: third.Span, Name: "txn"}) // evicts old
	if r.Spans(old.Trace) != nil {
		t.Fatal("setup: old trace should be evicted")
	}
	if r.Spans(newer.Trace) == nil {
		t.Fatal("setup: newer trace must still be retained")
	}

	r.RefreshApplied(0, 7, 2, time.Millisecond, time.Now())
	var found bool
	for _, sp := range r.Spans(newer.Trace) {
		if sp.Name == "refresh_apply" && sp.Parent == newerCommit {
			found = true
		}
	}
	if !found {
		t.Fatal("stamp entry owned by the newer trace was dropped by the old trace's eviction")
	}
}

// TestSpanStampSlotReuseNoMisattribution covers the other side of the
// guard: after eviction, a stale stamp whose trace is gone must not attach
// refresh-apply spans to the unrelated trace now occupying the slot.
func TestSpanStampSlotReuseNoMisattribution(t *testing.T) {
	r := NewSpanRecorder(1) // single slot: every new trace reuses it
	old := NewTraceContext()
	r.Record(Span{Trace: old.Trace, ID: old.Span, Name: "txn"})
	r.RegisterStamp(5, 11, SpanContext{Trace: old.Trace, Span: old.Span})

	// RegisterStamp on a fresh trace reuses slot 0. The old stamp (5,11) was
	// dropped by the eviction; even if it had survived, the ref.trace guard
	// in RefreshApplied must reject it.
	newer := NewTraceContext()
	r.Record(Span{Trace: newer.Trace, ID: newer.Span, Name: "txn"})

	r.RefreshApplied(5, 11, 2, time.Millisecond, time.Now())
	for _, sp := range r.Spans(newer.Trace) {
		if sp.Name == "refresh_apply" {
			t.Fatalf("stale stamp attributed a refresh_apply span to an unrelated trace: %+v", sp)
		}
	}
}

// TestSpanRecorderSummaries pins the trace list's headline fields and its
// newest-first order.
func TestSpanRecorderSummaries(t *testing.T) {
	r := NewSpanRecorder(8)
	var ids []string
	for i := 0; i < 3; i++ {
		sc := NewTraceContext()
		ids = append(ids, fmt.Sprintf("%016x", sc.Trace))
		r.Record(Span{Trace: sc.Trace, ID: sc.Span, Name: "txn",
			Start: time.Now(), Dur: time.Duration(i+1) * time.Millisecond})
		r.Record(Span{Trace: sc.Trace, Parent: sc.Span, Name: "execute", Site: 2})
	}
	list := r.Traces(0, false)
	if len(list) != 3 {
		t.Fatalf("Traces(0) returned %d, want 3", len(list))
	}
	if list[0].Trace != ids[2] || list[2].Trace != ids[0] {
		t.Fatalf("traces not newest-first: %+v", list)
	}
	if got := list[0]; got.Spans != 2 || got.Site != 2 || got.TotalNS != int64(3*time.Millisecond) || got.Total != "3ms" {
		t.Fatalf("headline wrong: %+v", got)
	}
	if got := r.Traces(2, false); len(got) != 2 || got[0].Trace != ids[2] {
		t.Fatalf("Traces(2) = %+v", got)
	}
}

// TestRefreshAppliedUnsampledTakesNoLock pins the unsampled refresh path:
// with no stamp registered — none ever, or every one evicted with its
// trace — RefreshApplied must return without taking the recorder's mutex,
// which every replica would otherwise contend on for every applied member.
func TestRefreshAppliedUnsampledTakesNoLock(t *testing.T) {
	r := NewSpanRecorder(1)
	returns := func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		done := make(chan struct{})
		go func() {
			r.RefreshApplied(0, 1, 1, time.Millisecond, time.Now())
			close(done)
		}()
		select {
		case <-done:
			return true
		case <-time.After(time.Second):
			return false
		}
	}
	if !returns() {
		t.Fatal("RefreshApplied blocked on the recorder lock with no stamp ever registered")
	}
	old := NewTraceContext()
	r.RegisterStamp(0, 1, old)
	r.Record(Span{Trace: NewTraceContext().Trace, Name: "txn"}) // evicts old and its stamp
	if !returns() {
		t.Fatal("RefreshApplied blocked on the recorder lock after the last stamp was evicted")
	}
}

func TestSpanRecorderInstrument(t *testing.T) {
	r := NewSpanRecorder(4)
	sc := NewTraceContext()
	r.Record(Span{Trace: sc.Trace, ID: sc.Span, Name: "txn"})
	reg := NewRegistry()
	r.Instrument(reg)
	snap := reg.Snapshot()
	if v, ok := snap.Value("dynamast_trace_traces_total"); !ok || v != 1 {
		t.Fatalf("dynamast_trace_traces_total = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := snap.Value("dynamast_trace_spans_total"); !ok || v != 1 {
		t.Fatalf("dynamast_trace_spans_total = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := snap.Value("dynamast_trace_spans_dropped_total"); !ok || v != 0 {
		t.Fatalf("dynamast_trace_spans_dropped_total = %v (ok=%v), want 0", v, ok)
	}
}
