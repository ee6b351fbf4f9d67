package obs

import (
	"io"
	"sync"
	"testing"
	"time"
)

// TestConcurrentRegistry hammers every instrument type and the span
// recorder from parallel writers while readers snapshot, render and list
// traces; it exists to run under -race and to check the final counts are
// exact (no lost updates).
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	sr := NewSpanRecorder(64)
	const (
		writers = 8
		perG    = 2000
	)
	stop := make(chan struct{})
	var readers, writerWG sync.WaitGroup

	// Readers: snapshot, render, and query quantiles continuously until the
	// writers are done.
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := r.Snapshot()
				s.WritePrometheus(io.Discard)
				s.WriteText(io.Discard)
				r.Histogram("lat_seconds").Quantile(0.99)
				sr.Traces(10, false)
				sr.Traces(5, true)
			}
		}()
	}

	for g := 0; g < writers; g++ {
		writerWG.Add(1)
		go func(g int) {
			defer writerWG.Done()
			c := r.Counter("ops_total", Site(g%2))
			ga := r.Gauge("level", Site(g%2))
			h := r.Histogram("lat_seconds")
			for i := 0; i < perG; i++ {
				c.Inc()
				ga.Set(float64(i))
				h.Observe(float64(i%100) / 1e4)
				sc := NewTraceContext()
				sr.Record(Span{Trace: sc.Trace, ID: sc.Span, Name: "txn",
					Start: time.Now(), Dur: time.Duration(i) * time.Microsecond})
				sr.RegisterStamp(g, uint64(i+1), sc)
				sr.RefreshApplied(g, uint64(i+1), g+1, time.Microsecond, time.Now())
				// Re-registration races with other writers and readers.
				r.Func("collected", KindGauge, func() float64 { return float64(i) })
			}
		}(g)
	}
	writerWG.Wait()
	close(stop)
	readers.Wait()

	s := r.Snapshot()
	var total float64
	for _, site := range []int{0, 1} {
		v, ok := s.Value("ops_total", Site(site))
		if !ok {
			t.Fatalf("ops_total{site=%d} missing", site)
		}
		total += v
	}
	if want := float64(writers * perG); total != want {
		t.Fatalf("ops_total = %g, want %g (lost updates)", total, want)
	}
	h := r.Histogram("lat_seconds")
	if h.Count() != writers*perG {
		t.Fatalf("histogram count = %d", h.Count())
	}
	// A stamp registered after other writers evicted its trace re-admits the
	// trace, so the count may exceed one per iteration but never fall short.
	if traces := sr.traces.Load(); traces < writers*perG {
		t.Fatalf("span recorder traces = %d, want >= %d", traces, writers*perG)
	}
	if got := len(sr.Traces(0, false)); got != 64 {
		t.Fatalf("ring lists %d traces, want its capacity 64", got)
	}
}
