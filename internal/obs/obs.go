// Package obs is DynaMast's observability substrate: a zero-dependency
// metrics registry (atomic counters, gauges and streaming histograms with
// fixed log-spaced buckets) plus a transaction-lifecycle tracer that stamps
// each update transaction's span through route → remaster → execute →
// commit → WAL-publish → refresh-apply.
//
// Every component of the system (selector, sitemgr, wal, transport, core)
// registers its instruments in the cluster's Registry; the registry renders
// to Prometheus text format for the dynamastd /metrics endpoint and to a
// structured Snapshot that travels over the RPC layer to dynactl. The
// paper motivates adaptive mastering with measured per-phase costs
// (§IV–§VI); this package is where those measurements live.
//
// Naming follows the Prometheus conventions: `dynamast_` prefix, `_total`
// suffix on counters, `_seconds` suffix on duration histograms, and
// lower-snake label keys (`site`, `origin`, `category`, `stage`, `kind`).
//
// All instruments are safe for concurrent use, and every instrument type
// tolerates a nil receiver (no-op): components instrument unconditionally
// while unit tests construct them without a registry.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name/value metric dimension.
type Label struct {
	Key   string
	Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Site is shorthand for the ubiquitous site-index label.
func Site(id int) Label { return Label{Key: "site", Value: fmt.Sprint(id)} }

// Kind discriminates instrument types.
type Kind uint8

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota + 1
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a streaming distribution.
	KindHistogram
)

// String returns the Prometheus TYPE name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// entry is one registered instrument.
type entry struct {
	name   string
	labels []Label
	kind   Kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // read-at-snapshot collector (counter or gauge)
}

// Registry holds a cluster's instruments. A nil *Registry is valid: every
// constructor returns a nil instrument, whose methods no-op.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
	order   []string // registration order of keys (stable rendering input)
	help    map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		entries: make(map[string]*entry),
		help:    make(map[string]string),
	}
}

// key renders the canonical identity of an instrument: name plus sorted
// labels.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// sortLabels returns labels sorted by key (copied; callers' slices are not
// mutated).
func sortLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// get returns the entry for (name, labels), creating it with mk on first
// sight. Re-registration with a different kind panics: it is a programming
// error, not a runtime condition.
func (r *Registry) get(name string, labels []Label, kind Kind, mk func(*entry)) *entry {
	labels = sortLabels(labels)
	k := key(name, labels)
	r.mu.RLock()
	e := r.entries[k]
	r.mu.RUnlock()
	if e == nil {
		r.mu.Lock()
		if e = r.entries[k]; e == nil {
			e = &entry{name: name, labels: labels, kind: kind}
			mk(e)
			r.entries[k] = e
			r.order = append(r.order, k)
		}
		r.mu.Unlock()
	}
	if e.kind != kind {
		panic(fmt.Sprintf("obs: %s re-registered as %s (was %s)", name, kind, e.kind))
	}
	return e
}

// Counter returns (registering if needed) the named counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, labels, KindCounter, func(e *entry) { e.counter = &Counter{} }).counter
}

// Gauge returns (registering if needed) the named gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, labels, KindGauge, func(e *entry) { e.gauge = &Gauge{} }).gauge
}

// Histogram returns (registering if needed) the named histogram.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.get(name, labels, KindHistogram, func(e *entry) { e.hist = NewHistogram() }).hist
}

// Func registers a collector: fn is read at snapshot time and reported with
// the given kind (KindCounter for monotonic sources, KindGauge otherwise).
// Re-registering the same identity replaces the function — components that
// are rebuilt (recovery) keep one live collector.
func (r *Registry) Func(name string, kind Kind, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	e := r.get(name, labels, kind, func(e *entry) {})
	r.mu.Lock()
	e.fn = fn
	r.mu.Unlock()
}

// Help attaches HELP text to a metric name (rendered once per family).
func (r *Registry) Help(name, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[name] = text
	r.mu.Unlock()
}

// BucketCount is one histogram bucket in a snapshot: the cumulative count
// of observations ≤ UpperBound (seconds).
type BucketCount struct {
	UpperBound float64
	Count      uint64
}

// Sample is one instrument's state in a snapshot. Counter and gauge samples
// carry Value; histogram samples carry Count/Sum/Max/quantiles/Buckets.
type Sample struct {
	Name   string
	Labels []Label
	Kind   string

	Value float64

	Count   uint64
	Sum     float64
	Max     float64
	P50     float64
	P90     float64
	P99     float64
	Buckets []BucketCount
}

// ID renders the sample's identity as name{k="v",...}.
func (s Sample) ID() string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	parts := make([]string, len(s.Labels))
	for i, l := range s.Labels {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return s.Name + "{" + strings.Join(parts, ",") + "}"
}

// Snapshot is a point-in-time copy of every instrument, sorted by name then
// label identity. It is plain data (JSON friendly, with a binary schema in
// internal/server) so it can travel over the RPC layer to dynactl.
type Snapshot struct {
	At      time.Time
	Samples []Sample
	Help    map[string]string
}

// Snapshot captures every instrument. Collectors (Func) are captured under
// the registry lock (their slot may be replaced by re-registration) but
// invoked outside it, so a collector may itself touch the registry.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{At: time.Now()}
	if r == nil {
		return snap
	}
	type capture struct {
		e  *entry
		fn func() float64
	}
	r.mu.RLock()
	entries := make([]capture, 0, len(r.order))
	for _, k := range r.order {
		e := r.entries[k]
		entries = append(entries, capture{e: e, fn: e.fn})
	}
	snap.Help = make(map[string]string, len(r.help))
	for k, v := range r.help {
		snap.Help[k] = v
	}
	r.mu.RUnlock()

	for _, c := range entries {
		e := c.e
		s := Sample{Name: e.name, Labels: e.labels, Kind: e.kind.String()}
		switch {
		case c.fn != nil:
			s.Value = c.fn()
		case e.counter != nil:
			s.Value = float64(e.counter.Value())
		case e.gauge != nil:
			s.Value = e.gauge.Value()
		case e.hist != nil:
			h := e.hist
			s.Count = h.Count()
			s.Sum = h.Sum()
			s.Max = h.Max()
			s.P50 = h.Quantile(0.50)
			s.P90 = h.Quantile(0.90)
			s.P99 = h.Quantile(0.99)
			s.Buckets = h.cumulativeBuckets()
		}
		snap.Samples = append(snap.Samples, s)
	}
	sort.Slice(snap.Samples, func(i, j int) bool {
		if snap.Samples[i].Name != snap.Samples[j].Name {
			return snap.Samples[i].Name < snap.Samples[j].Name
		}
		return snap.Samples[i].ID() < snap.Samples[j].ID()
	})
	return snap
}

// Value returns the counter/gauge sample matching name and the exact label
// set, if present.
func (s Snapshot) Value(name string, labels ...Label) (float64, bool) {
	want := key(name, sortLabels(labels))
	for _, sm := range s.Samples {
		if key(sm.Name, sm.Labels) == want {
			return sm.Value, true
		}
	}
	return 0, false
}

// Get returns the full sample matching name and the exact label set.
func (s Snapshot) Get(name string, labels ...Label) (Sample, bool) {
	want := key(name, sortLabels(labels))
	for _, sm := range s.Samples {
		if key(sm.Name, sm.Labels) == want {
			return sm, true
		}
	}
	return Sample{}, false
}

// promLabels renders a label set (plus an optional extra pair) in
// Prometheus exposition syntax.
func promLabels(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	parts := make([]string, 0, len(labels)+1)
	for _, l := range labels {
		parts = append(parts, fmt.Sprintf("%s=%q", l.Key, l.Value))
	}
	if extraKey != "" {
		parts = append(parts, fmt.Sprintf("%s=%q", extraKey, extraVal))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// fmtFloat renders a float the way Prometheus expects (no exponent for
// integral values, +Inf spelled out).
func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format. Histograms emit the standard _bucket/_sum/_count series.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var lastName string
	for _, sm := range s.Samples {
		if sm.Name != lastName {
			if help := s.Help[sm.Name]; help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", sm.Name, help)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", sm.Name, sm.Kind)
			lastName = sm.Name
		}
		if sm.Kind != KindHistogram.String() {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", sm.Name, promLabels(sm.Labels, "", ""), fmtFloat(sm.Value)); err != nil {
				return err
			}
			continue
		}
		for _, b := range sm.Buckets {
			fmt.Fprintf(w, "%s_bucket%s %d\n", sm.Name, promLabels(sm.Labels, "le", fmtFloat(b.UpperBound)), b.Count)
		}
		fmt.Fprintf(w, "%s_sum%s %g\n", sm.Name, promLabels(sm.Labels, "", ""), sm.Sum)
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", sm.Name, promLabels(sm.Labels, "", ""), sm.Count); err != nil {
			return err
		}
	}
	return nil
}

// WriteText renders a human-oriented summary: one aligned line per counter
// and gauge, and count/avg/p50/p90/p99/max for histograms. dynactl and the
// dynamastd shutdown report both use it, so the console and /metrics can
// never disagree about values.
func (s Snapshot) WriteText(w io.Writer) error {
	width := 0
	for _, sm := range s.Samples {
		if n := len(sm.ID()); n > width {
			width = n
		}
	}
	for _, sm := range s.Samples {
		if sm.Kind == KindHistogram.String() {
			avg := 0.0
			if sm.Count > 0 {
				avg = sm.Sum / float64(sm.Count)
			}
			fmt.Fprintf(w, "%-*s  n=%d avg=%s p50=%s p90=%s p99=%s max=%s\n",
				width, sm.ID(), sm.Count,
				fmtSeconds(avg), fmtSeconds(sm.P50), fmtSeconds(sm.P90),
				fmtSeconds(sm.P99), fmtSeconds(sm.Max))
			continue
		}
		if _, err := fmt.Fprintf(w, "%-*s  %s\n", width, sm.ID(), fmtFloat(sm.Value)); err != nil {
			return err
		}
	}
	return nil
}

// fmtSeconds renders a duration measured in (float) seconds compactly.
func fmtSeconds(sec float64) string {
	return time.Duration(sec * float64(time.Second)).Round(time.Microsecond).String()
}
