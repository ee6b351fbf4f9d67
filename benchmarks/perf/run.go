package main

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// nSessions is the closed-loop client count: one per CPU of the box the
// bounds were calibrated on. A DynaMast session waits for each reply
// (strong-session SI), so the loop is closed by construction.
const nSessions = 2

// nSlices cuts the measured budget into equal count-slices. An end-to-end
// rate is the median of its per-slice values, so one noisy-neighbour stall
// moves one slice, not the metric; the slice minimum and maximum are printed
// beside it.
const nSlices = 6

// wallCap fails a workload that has not finished its budget in time.
const wallCap = 120 * time.Second

// Transaction classes, as recorded per token. classFailed is or-ed in when
// the transaction returned an error after the session's own retries.
const (
	classUpdate uint8 = iota
	classRead
	classFailed uint8 = 0x80
)

// session is one closed-loop client. gen draws the next transaction outside
// the timed region; exec runs it and reports its class.
type session interface {
	gen()
	exec() (class uint8, err error)
}

// mark is what a session records when it takes the first token of a slice.
type mark struct {
	at  time.Time
	cpu time.Duration // user+sys CPU of the process under test so far
}

// recorder holds one measured window. Tokens are handed out by an atomic
// counter and each is executed by exactly one session, so lat and class are
// written without locks, and token order is budget order: slice k is
// lat[k*S:(k+1)*S] whichever sessions ran it.
type recorder struct {
	budget    int
	sliceSize int
	lat       []uint32 // ns; a closed-loop latency above 4.29 s saturates
	class     []uint8
	marks     [nSlices + 1]mark
	cpuNow    func() time.Duration
}

func newRecorder(budget int, cpuNow func() time.Duration) *recorder {
	budget -= budget % nSlices
	return &recorder{
		budget:    budget,
		sliceSize: budget / nSlices,
		lat:       make([]uint32, budget),
		class:     make([]uint8, budget),
		cpuNow:    cpuNow,
	}
}

func (r *recorder) mark(k int) { r.marks[k] = mark{at: time.Now(), cpu: r.cpuNow()} }

// runBudget drives the sessions until budget tokens are spent. With a nil
// recorder it is a warm-up: same loop, nothing recorded. It returns the
// number of transactions that failed after the session's own retries and
// the first such failure; err reports a run that hit the wall cap.
func runBudget(sessions []session, budget int, rec *recorder) (failed int, firstFail, err error) {
	if rec != nil {
		budget = rec.budget
	}
	var next, nfail atomic.Int64
	var firstErr atomic.Value
	deadline := time.Now().Add(wallCap)
	var timedOut atomic.Bool
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func(s session) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= budget || timedOut.Load() {
					return
				}
				if i&1023 == 0 && time.Now().After(deadline) {
					timedOut.Store(true)
					return
				}
				if rec != nil && i%rec.sliceSize == 0 {
					rec.mark(i / rec.sliceSize)
				}
				s.gen()
				t0 := time.Now()
				class, err := s.exec()
				d := time.Since(t0)
				if err != nil {
					nfail.Add(1)
					firstErr.CompareAndSwap(nil, err)
					class |= classFailed
				}
				if rec != nil {
					if d > time.Duration(^uint32(0)) {
						d = time.Duration(^uint32(0))
					}
					rec.lat[i], rec.class[i] = uint32(d), class
				}
			}
		}(s)
	}
	wg.Wait()
	if rec != nil {
		rec.mark(nSlices)
	}
	firstFail, _ = firstErr.Load().(error)
	if timedOut.Load() {
		err = fmt.Errorf("budget of %d not finished within %v", budget, wallCap)
	}
	return int(nfail.Load()), firstFail, err
}

// windowStats are the end-to-end metrics one measured window yields.
type windowStats struct {
	TxnPerS   sliceStat
	CPUPerTxn sliceStat // µs
	// Latency percentiles, µs, over every transaction of the window.
	UpdateP50, UpdateP99 float64
	ReadP50, ReadP99     float64
	Updates, Reads       int
}

// stats reduces the window. The two rates are medians of their per-slice
// values. The percentiles are taken over the whole budget: on the box the
// bounds were calibrated on, per-slice p99s spread twice as wide from run to
// run as whole-budget ones (README, "Noise"), because a slice that holds a
// GC cycle has a different tail from one that does not.
func (r *recorder) stats() windowStats {
	var ws windowStats
	var tps, cpu []float64
	var by [2][]uint32
	for k := 0; k < nSlices; k++ {
		committed := 0
		for i := k * r.sliceSize; i < (k+1)*r.sliceSize; i++ {
			// A failed transaction keeps its place in the latency pool: it
			// made a client wait that long for nothing.
			c := r.class[i] &^ classFailed
			by[c] = append(by[c], r.lat[i])
			if r.class[i]&classFailed == 0 {
				committed++
			}
		}
		wall := r.marks[k+1].at.Sub(r.marks[k].at)
		tps = append(tps, float64(committed)/wall.Seconds())
		cpu = append(cpu, float64(r.marks[k+1].cpu-r.marks[k].cpu)/float64(time.Microsecond)/float64(max(committed, 1)))
	}
	slices.Sort(by[classUpdate])
	slices.Sort(by[classRead])
	us := func(sorted []uint32, p float64) float64 { return float64(percentile(sorted, p)) / 1e3 }
	ws.TxnPerS, ws.CPUPerTxn = reduceSlices(tps), reduceSlices(cpu)
	ws.UpdateP50, ws.UpdateP99 = us(by[classUpdate], 0.50), us(by[classUpdate], 0.99)
	ws.ReadP50, ws.ReadP99 = us(by[classRead], 0.50), us(by[classRead], 0.99)
	ws.Updates, ws.Reads = len(by[classUpdate]), len(by[classRead])
	return ws
}

// wall is the window's duration, first token taken to last reply.
func (r *recorder) wall() time.Duration { return r.marks[nSlices].at.Sub(r.marks[0].at) }

// selfCPU is the benchmark process's user+sys CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
