package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Cross-site distributed tracing, the per-transaction view beside the
// aggregate stage histograms. A SpanContext — 64-bit trace id plus 64-bit
// span id — travels inside the binary RPC frame (one reserved flags bit;
// zero bytes when unsampled) and through the selector → site → replica call
// path, and every participant records timed Spans against the shared trace
// id. The result is one span tree per sampled transaction with cross-site
// causal edges: route with its release (source site) and grant (destination
// site) children, begin, execute, commit with its WAL-flush child, and one
// refresh-apply span per replica that applied the update. The lifecycle
// stages of a retained trace are derived from that tree (trace.go).

// SpanContext identifies a position in a distributed trace: the trace it
// belongs to and the span the current operation should record (or parent
// its children on). The zero value means "not sampled" and costs nothing
// anywhere it flows.
type SpanContext struct {
	Trace uint64
	Span  uint64
}

// Sampled reports whether the context carries a live trace.
func (sc SpanContext) Sampled() bool { return sc.Trace != 0 }

// Child returns a context in the same trace with a fresh span id.
func (sc SpanContext) Child() SpanContext {
	if !sc.Sampled() {
		return SpanContext{}
	}
	return SpanContext{Trace: sc.Trace, Span: NewSpanID()}
}

// Span is one timed operation inside a trace.
type Span struct {
	Trace  uint64
	ID     uint64
	Parent uint64 // 0 = root of the tree
	Name   string // route, release, grant, execute, commit, wal_flush, refresh_apply, txn
	Site   int    // executing site; SelectorSite for the selector/client side
	Start  time.Time
	Dur    time.Duration
}

// SelectorSite is the Site value of spans recorded on the selector/client
// side rather than at a data site.
const SelectorSite = -1

// idState drives process-wide trace/span id generation: splitmix64 over an
// atomic counter, seeded once from the wall clock so ids from distinct
// processes do not collide in practice.
var idState struct {
	seed uint64
	ctr  atomic.Uint64
}

func init() {
	idState.seed = uint64(time.Now().UnixNano())
}

// newID returns a non-zero 64-bit id.
func newID() uint64 {
	for {
		z := idState.seed + idState.ctr.Add(1)*0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		if z ^= z >> 31; z != 0 {
			return z
		}
	}
}

// NewSpanID returns a fresh span id.
func NewSpanID() uint64 { return newID() }

// NewTraceContext starts a new sampled trace: fresh trace id, fresh root
// span id. The caller (or whoever it hands the context to) is responsible
// for recording the root span.
func NewTraceContext() SpanContext {
	return SpanContext{Trace: newID(), Span: newID()}
}

// Sampler makes the 1-in-N head sampling decision for locally originated
// transactions. A nil *Sampler never samples, so the unsampled fast path is
// one nil check.
type Sampler struct {
	every uint64
	ctr   atomic.Uint64
}

// NewSampler samples one in every `every` decisions (every <= 0 disables
// sampling and returns nil).
func NewSampler(every int) *Sampler {
	if every <= 0 {
		return nil
	}
	return &Sampler{every: uint64(every)}
}

// Sample reports whether this decision is sampled.
func (s *Sampler) Sample() bool {
	if s == nil {
		return false
	}
	return s.ctr.Add(1)%s.every == 0
}

// maxSpansPerTrace caps one trace's span list so a pathological transaction
// (or a stamp collision feeding endless refresh-apply spans) cannot grow a
// slot without bound; overflow is counted, not stored.
const maxSpansPerTrace = 256

// spanStamp keys a commit stamp (origin site, commit sequence) to the
// commit span refresh-apply spans should parent on.
type spanStamp struct {
	site int
	seq  uint64
}

// stampRef records which ring slot (and which trace occupying it) a stamp
// belongs to, so eviction can drop exactly its own entries: a commit stamp
// can recur (a recovered site restarts its sequence) and be re-pointed at a
// newer slot.
type stampRef struct {
	slot  int
	trace uint64
	span  uint64 // the commit span id refresh-apply spans attach under
}

// traceSlot is one retained trace.
type traceSlot struct {
	trace  uint64
	spans  []Span
	stamps []spanStamp // stamps registered against this slot, dropped on eviction
}

// SpanRecorder retains the spans of the most recent sampled traces in a
// bounded ring. All methods are safe for concurrent use; a nil
// *SpanRecorder no-ops.
type SpanRecorder struct {
	mu      sync.Mutex
	slots   []traceSlot
	next    int
	have    int
	byTrace map[uint64]int
	byStamp map[spanStamp]stampRef
	// stamps mirrors len(byStamp) so RefreshApplied can skip the lock when
	// no stamp is registered.
	stamps atomic.Int64

	traces  atomic.Uint64 // lifetime traces started
	spans   atomic.Uint64 // lifetime spans recorded
	dropped atomic.Uint64 // spans dropped by the per-trace cap
}

// NewSpanRecorder returns a recorder retaining the last capacity traces
// (capacity <= 0 selects DefaultTraceRing).
func NewSpanRecorder(capacity int) *SpanRecorder {
	if capacity <= 0 {
		capacity = DefaultTraceRing
	}
	return &SpanRecorder{
		slots:   make([]traceSlot, capacity),
		byTrace: make(map[uint64]int, capacity),
		byStamp: make(map[spanStamp]stampRef, capacity),
	}
}

// slotFor returns the slot index holding trace, allocating (and evicting
// the oldest trace) on first sight. Caller holds r.mu.
func (r *SpanRecorder) slotFor(trace uint64) int {
	if slot, ok := r.byTrace[trace]; ok {
		return slot
	}
	slot := r.next
	old := &r.slots[slot]
	if old.trace != 0 {
		// Evict: drop the index entries that still belong to this slot's
		// current occupant. A guard on both slot and trace id prevents
		// deleting an entry that a newer trace (or a reused stamp) now owns.
		if cur, ok := r.byTrace[old.trace]; ok && cur == slot {
			delete(r.byTrace, old.trace)
		}
		for _, st := range old.stamps {
			if ref, ok := r.byStamp[st]; ok && ref.slot == slot && ref.trace == old.trace {
				delete(r.byStamp, st)
			}
		}
		r.stamps.Store(int64(len(r.byStamp)))
	}
	*old = traceSlot{trace: trace, spans: old.spans[:0], stamps: old.stamps[:0]}
	r.byTrace[trace] = slot
	r.next = (r.next + 1) % len(r.slots)
	if r.have < len(r.slots) {
		r.have++
	}
	r.traces.Add(1)
	return slot
}

// Record adds one completed span to its trace, retaining the trace if it is
// new. Spans with a zero trace id are ignored (unsampled paths call
// unconditionally).
func (r *SpanRecorder) Record(sp Span) {
	if r == nil || sp.Trace == 0 {
		return
	}
	if sp.ID == 0 {
		sp.ID = newID()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	slot := r.slotFor(sp.Trace)
	s := &r.slots[slot]
	if len(s.spans) >= maxSpansPerTrace {
		r.dropped.Add(1)
		return
	}
	s.spans = append(s.spans, sp)
	r.spans.Add(1)
}

// RegisterStamp associates a commit stamp (origin site, commit sequence)
// with the commit span in sc, so the asynchronous refresh-apply completions
// keyed by that stamp can attach to the right parent.
func (r *SpanRecorder) RegisterStamp(site int, seq uint64, sc SpanContext) {
	if r == nil || !sc.Sampled() || seq == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	slot := r.slotFor(sc.Trace)
	st := spanStamp{site, seq}
	r.byStamp[st] = stampRef{slot: slot, trace: sc.Trace, span: sc.Span}
	r.stamps.Store(int64(len(r.byStamp)))
	r.slots[slot].stamps = append(r.slots[slot].stamps, st)
}

// RefreshApplied records a refresh-apply span at the applying site for the
// transaction committed at (origin, seq), if that trace is still retained.
// The span covers [now-lag, now]: the time from commit publication until
// the replica applied the refresh transaction.
//
// Every replica calls it for every member it applies, so with no stamp
// registered it returns before locking. The lock-free miss is safe because
// the origin registers a sampled commit's stamp inside its commit critical
// section, before the log append (or epoch buffer) publishes the entry: no
// replica can apply an entry before its stamp has raised the count.
func (r *SpanRecorder) RefreshApplied(origin int, seq uint64, site int, lag time.Duration, now time.Time) {
	if r == nil || r.stamps.Load() == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ref, ok := r.byStamp[spanStamp{origin, seq}]
	if !ok || r.slots[ref.slot].trace != ref.trace {
		return
	}
	s := &r.slots[ref.slot]
	if len(s.spans) >= maxSpansPerTrace {
		r.dropped.Add(1)
		return
	}
	s.spans = append(s.spans, Span{
		Trace:  ref.trace,
		ID:     newID(),
		Parent: ref.span,
		Name:   "refresh_apply",
		Site:   site,
		Start:  now.Add(-lag),
		Dur:    lag,
	})
	r.spans.Add(1)
}

// Spans returns a copy of the retained spans of trace (nil if the trace is
// unknown or evicted).
func (r *SpanRecorder) Spans(trace uint64) []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	slot, ok := r.byTrace[trace]
	if !ok {
		return nil
	}
	return append([]Span(nil), r.slots[slot].spans...)
}

// Traces returns up to n retained traces (n <= 0 means all) with their
// span-derived stages: newest first, or slowest first by total when slow
// is set. The result is never nil, so it encodes as a JSON list.
func (r *SpanRecorder) Traces(n int, slow bool) []TraceJSON {
	out := []TraceJSON{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	for i := 0; i < r.have; i++ {
		if !slow && n > 0 && len(out) == n {
			break
		}
		s := &r.slots[((r.next-1-i)%len(r.slots)+len(r.slots))%len(r.slots)]
		out = append(out, traceJSON(s.trace, s.spans))
	}
	r.mu.Unlock()
	if slow {
		sort.SliceStable(out, func(i, j int) bool { return out[i].TotalNS > out[j].TotalNS })
	}
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// Instrument registers the dynamast_trace_* counters in reg.
func (r *SpanRecorder) Instrument(reg *Registry) {
	if r == nil || reg == nil {
		return
	}
	reg.Help("dynamast_trace_traces_total", "Sampled distributed traces started (lifetime).")
	reg.Help("dynamast_trace_spans_total", "Spans recorded across all sampled traces (lifetime).")
	reg.Help("dynamast_trace_spans_dropped_total", "Spans dropped by the per-trace span cap.")
	reg.Func("dynamast_trace_traces_total", KindCounter, func() float64 { return float64(r.traces.Load()) })
	reg.Func("dynamast_trace_spans_total", KindCounter, func() float64 { return float64(r.spans.Load()) })
	reg.Func("dynamast_trace_spans_dropped_total", KindCounter, func() float64 { return float64(r.dropped.Load()) })
}
