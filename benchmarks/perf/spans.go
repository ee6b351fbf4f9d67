package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// spanName identifies the call a span wraps. Every span is recorded by the
// benchmark around a public call into one layer; none is inside the
// program.
type spanName uint8

const (
	spanGen          spanName = iota // workload: draw + build the next transaction
	spanTxn                          // one transaction, submit to reply
	spanRouteWrite                   // selector: Router.RouteWrite
	spanRemasterWait                 // selector: Route.RemasterWait, inside RouteWrite
	spanRouteRead                    // selector: Router.RouteRead
	spanBegin                        // sitemgr: Site.Begin (locks + freshness wait)
	spanExec                         // the procedure + Site.Exec
	spanRead                         // storage: Tx.Read
	spanWrite                        // storage: Tx.Write
	spanScan                         // storage: Tx.Scan
	spanCommit                       // sitemgr: Txn.Commit
	spanWALPublish                   // wal: Txn.WALPublish, inside Commit
	spanFallback                     // Session.Update/Read after a retryable error
	spanWire                         // server.Client.Txn over TCP
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"gen", "txn", "route_write", "remaster_wait", "route_read", "begin", "exec",
	"read", "write", "scan", "commit", "wal_publish", "fallback", "wire",
}

// spanLayer maps a span's self time to the layer that spent it. The txn
// span's self time is what is left once every call is subtracted: session
// glue (vector clones, retry bookkeeping). exec's is the procedure's own
// code plus the execution-slot hand-off.
var spanLayer = [numSpanNames]string{
	"workload", "core", "selector", "selector.wait", "selector", "sitemgr", "procedure",
	"storage", "storage", "storage", "sitemgr", "wal", "core.fallback", "wire+server",
}

// noParent marks a root span.
const noParent = -1

// span is one recorded call: name, start, end, the span that caused it, and
// the transaction both belong to. Times are nanoseconds since the tracer's
// base; parent indexes the same buffer.
type span struct {
	name       spanName
	parent     int32
	txn        uint32
	start, end int64
}

// tracer is one session's span buffer and boundary counters. It is used by
// one goroutine, so nothing here is synchronised. The buffer is allocated
// up front and written out only when the run ends.
type tracer struct {
	base  time.Time
	spans []span
	txn   uint32 // the current transaction's id, and the count so far

	rows       uint64 // rows read, written or scanned
	scanRows   uint64
	retries    uint64
	visSamples uint64
	visNanos   int64
}

func newTracer(base time.Time, capacity int) *tracer {
	return &tracer{base: base, spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add records a finished span and returns its index.
func (t *tracer) add(name spanName, parent int32, start, end int64) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, txn: t.txn, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// open records a span whose end is not known yet; finish closes it.
func (t *tracer) open(name spanName, parent int32, start int64) int32 {
	return t.add(name, parent, start, start)
}

func (t *tracer) finish(i int32, end int64) { t.spans[i].end = end }

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children may overlap each other
// or stick out of the parent; cover is the union of the children clipped to
// the parent.
func selfTimes(spans []span) []int64 {
	// Children grouped by parent in one flat array: first[p]..first[p+1].
	first := make([]int32, len(spans)+1)
	for _, s := range spans {
		if s.parent != noParent {
			first[s.parent+1]++
		}
	}
	for i := 1; i < len(first); i++ {
		first[i] += first[i-1]
	}
	flat := make([]int32, first[len(spans)])
	fill := append([]int32(nil), first[:len(spans)]...)
	for i, s := range spans {
		if s.parent != noParent {
			flat[fill[s.parent]] = int32(i)
			fill[s.parent]++
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		kids := flat[first[i]:first[i+1]]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, edge := int64(0), s.start
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < edge {
				lo = edge
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// nameTotals is per-span-name aggregate time over a set of span buffers.
type nameTotals struct {
	count [numSpanNames]uint64
	dur   [numSpanNames]int64
	self  [numSpanNames]int64
}

func totals(tracers []*tracer) nameTotals {
	var nt nameTotals
	for _, t := range tracers {
		self := selfTimes(t.spans)
		for i, s := range t.spans {
			nt.count[s.name]++
			nt.dur[s.name] += s.end - s.start
			nt.self[s.name] += self[i]
		}
	}
	return nt
}

// meanUS is total nanoseconds over n calls, in microseconds; 0 with no call.
func meanUS(nanos int64, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(nanos) / 1e3 / float64(n)
}

// layerShare is one row of the self-time table.
type layerShare struct {
	Layer string
	Share float64 // of all recorded self time
}

// layerShares folds self time by layer, largest first.
func (nt nameTotals) layerShares() []layerShare {
	by := make(map[string]int64)
	var total int64
	for n := spanName(0); n < numSpanNames; n++ {
		by[spanLayer[n]] += nt.self[n]
		total += nt.self[n]
	}
	var out []layerShare
	for l, v := range by {
		if v > 0 {
			out = append(out, layerShare{Layer: l, Share: float64(v) / float64(total)})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Share != out[b].Share {
			return out[a].Share > out[b].Share
		}
		return out[a].Layer < out[b].Layer
	})
	return out
}

// writeSpans writes every buffer as tab-separated lines:
// session, index, parent index (-1 for a root), txn, name, start_ns, end_ns.
func writeSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "session\tspan\tparent\ttxn\tname\tstart_ns\tend_ns")
	var line []byte
	for si, t := range tracers {
		for i, s := range t.spans {
			line = strconv.AppendInt(line[:0], int64(si), 10)
			line = append(line, '\t')
			line = strconv.AppendInt(line, int64(i), 10)
			line = append(line, '\t')
			line = strconv.AppendInt(line, int64(s.parent), 10)
			line = append(line, '\t')
			line = strconv.AppendUint(line, uint64(s.txn), 10)
			line = append(line, '\t')
			line = append(line, spanNames[s.name]...)
			line = append(line, '\t')
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, '\t')
			line = strconv.AppendInt(line, s.end, 10)
			line = append(line, '\n')
			w.Write(line) // a write error is sticky and surfaces from Flush
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
