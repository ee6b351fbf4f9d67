package selector

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"dynamast/internal/workload"
)

// harnessRecorder returns a step that records the next write of a
// ycsb_rmw-shaped stream into st: a uniform base among 1 000 partitions plus
// two workload.NeighborOffset neighbours, sorted and deduplicated as routing
// hands write sets to Stats, alternating between two clients 10 µs apart so
// each client's inter window stays live.
func harnessRecorder(st *Stats) func() {
	rng := rand.New(rand.NewSource(1))
	stream := make([][]uint64, 1<<14)
	for i := range stream {
		base := rng.Intn(1000)
		ws := []uint64{uint64(base)}
		for k := 0; k < 2; k++ {
			ws = append(ws, uint64((base+workload.NeighborOffset(rng)+1000)%1000))
		}
		slices.Sort(ws)
		stream[i] = slices.Compact(ws)
	}
	at, i := time.Unix(0, 0), 0
	return func() {
		at = at.Add(10 * time.Microsecond)
		st.RecordWrite(i%2, stream[i%len(stream)], at)
		i++
	}
}

// TestStatsRecordWriteAllocs pins that a warm RecordWrite allocates nothing:
// expired samples' arrays are recycled and co-access rows are edited in
// place.
func TestStatsRecordWriteAllocs(t *testing.T) {
	record := harnessRecorder(NewStats(StatsConfig{}))
	for i := 0; i < 50_000; i++ {
		record()
	}
	if allocs := testing.AllocsPerRun(1000, record); allocs != 0 {
		t.Fatalf("warm RecordWrite allocates %.1f times, want 0", allocs)
	}
}

// TestStatsRecentBoundedByWindow checks that the per-client recent write
// sets do not keep every client ever seen: 10k clients write once, and after
// two inter windows of a few active clients each stripe holds only those.
func TestStatsRecentBoundedByWindow(t *testing.T) {
	const window = 10 * time.Millisecond
	st := NewStats(StatsConfig{HistorySize: 64, InterWindow: window, Stripes: 4})
	at := time.Unix(0, 0)
	for c := 0; c < 10_000; c++ {
		st.RecordWrite(c, []uint64{uint64(c % 1000)}, at)
	}

	// Enough writes from 16 clients to wrap every stripe's history.
	const active = 16
	at = at.Add(2 * window)
	for i := 0; i < active*64; i++ {
		st.RecordWrite(i%active, []uint64{uint64(i % 50)}, at)
		at = at.Add(time.Microsecond)
	}
	total := 0
	for i := range st.stripes {
		sp := &st.stripes[i]
		for c := range sp.recent {
			if c >= active {
				t.Fatalf("stripe %d still holds client %d, idle for two windows", i, c)
			}
		}
		total += len(sp.recent)
	}
	if total != active {
		t.Fatalf("stripes hold %d recent write sets, want the %d active clients", total, active)
	}
}
