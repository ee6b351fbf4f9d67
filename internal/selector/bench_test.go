package selector

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dynamast/internal/storage"
	"dynamast/internal/vclock"
)

// benchSite is a no-op DataSite for routing micro-benchmarks.
type benchSite struct {
	id  int
	svv vclock.Vector
}

func (s *benchSite) ID() int            { return s.id }
func (s *benchSite) SVV() vclock.Vector { return s.svv.Clone() }
func (s *benchSite) Release(parts []uint64, to int, epoch uint64) (vclock.Vector, error) {
	return s.svv.Clone(), nil
}
func (s *benchSite) Grant(parts []uint64, relVV vclock.Vector, from int, epoch uint64) (vclock.Vector, error) {
	return s.svv.Clone(), nil
}
func (s *benchSite) FenceEpochsBelowRange(floor uint64, shard, shards int) uint64 { return floor }

// newFakeGroup builds an n-shard group without standbys over the given
// sites; partitions are keys / 100.
func newFakeGroup(tb testing.TB, sites []DataSite, shards int, w Weights, stats StatsConfig) *Group {
	tb.Helper()
	repls := make([]*Replicated, shards)
	for i := range repls {
		sel, err := New(Config{
			Sites:       sites,
			Partitioner: func(ref storage.RowRef) uint64 { return ref.Key / 100 },
			Weights:     w,
			Stats:       stats,
			Seed:        int64(i),
			Shard:       i,
			Shards:      shards,
		})
		if err != nil {
			tb.Fatal(err)
		}
		repls[i] = NewReplicated(sel, 0, nil)
	}
	g, err := NewGroup(GroupConfig{Shards: repls})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// benchFront is the front of a one-shard group over m no-op sites.
func benchFront(b *testing.B, m int, w Weights) *Front {
	b.Helper()
	sites := make([]DataSite, m)
	for i := range sites {
		sites[i] = &benchSite{id: i, svv: vclock.New(m)}
	}
	return newFakeGroup(b, sites, 1, w, StatsConfig{}).RouterFor(0)
}

// BenchmarkRouteWriteFastPath measures the single-master fast path: the
// common case the paper reports at <1% of transaction time.
func BenchmarkRouteWriteFastPath(b *testing.B) {
	front := benchFront(b, 4, YCSBWeights())
	ws := []storage.RowRef{{Table: "t", Key: 1}, {Table: "t", Key: 150}, {Table: "t", Key: 250}}
	// Co-locate once.
	if _, err := front.RouteWrite(0, ws, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := front.RouteWrite(0, ws, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteWriteRemaster measures the slow path: scoring all sites and
// transferring mastership (no simulated network). Every write set is two
// never-seen partitions, so the scoring walks empty co-access rows; the cost
// of scoring learned rows is BenchmarkDecide's.
func BenchmarkRouteWriteRemaster(b *testing.B) {
	front := benchFront(b, 4, YCSBWeights())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i) * 200
		// Two partitions that have never been co-located.
		ws := []storage.RowRef{{Table: "t", Key: k}, {Table: "t", Key: k + 100}}
		if _, err := front.RouteWrite(0, ws, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// sharedVVSite is benchSite without the per-call clone, so a scoring
// benchmark's allocations are the selector's own.
type sharedVVSite struct{ benchSite }

func (s *sharedVVSite) SVV() vclock.Vector { return s.svv }

// scoringFixture builds a one-shard group over m sites whose two-partition
// write set {0, 1} (mastered at sites 0 and 1) has learned intra and inter
// rows of `rows` distinct partners each, the partners mastered round-robin
// over the sites and the samples spread over all of the tracker's stripes.
func scoringFixture(tb testing.TB, rows, m, stripes int) (*Group, []uint64, []int) {
	tb.Helper()
	sites := make([]DataSite, m)
	for i := range sites {
		sites[i] = &sharedVVSite{benchSite{id: i, svv: vclock.New(m)}}
	}
	g := newFakeGroup(tb, sites, 1, YCSBWeights(), StatsConfig{Stripes: stripes})
	sel := g.Shard(0)
	parts := []uint64{0, 1}
	sel.RegisterPartitionEpoch(0, 0, 0)
	sel.RegisterPartitionEpoch(1, 1, 0)
	now := time.Now()
	for r := 0; r < rows; r++ {
		for _, d1 := range parts {
			d2 := 1000 + uint64(r)*2 + d1
			sel.RegisterPartitionEpoch(d2, int(d2)%m, 0)
			// Same client, same instant: consecutive samples also pair up
			// inter-transaction, so both kinds of row reach `rows` entries.
			sel.stats.RecordWrite(r, []uint64{d1, d2}, now)
		}
	}
	return g, parts, []int{0, 1}
}

// BenchmarkDecide measures one remaster decision over learned co-access
// rows: rows = distinct partners per written partition and kind, sites =
// candidates, stripes = tracker stripes the rows are spread over.
func BenchmarkDecide(b *testing.B) {
	for _, rows := range []int{16, 256} {
		for _, m := range []int{4, 8} {
			for _, stripes := range []int{1, 16} {
				b.Run(fmt.Sprintf("rows=%d/sites=%d/stripes=%d", rows, m, stripes), func(b *testing.B) {
					g, parts, masters := scoringFixture(b, rows, m, stripes)
					cvv := vclock.New(m)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, _, err := g.Shard(0).decide(g, parts, masters, cvv); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkRouteWriteParallel drives the single-master fast path from many
// goroutines at once: the selector's routing hot path under concurrent
// client load, where partition-map, statistics and load-tracking
// synchronization costs dominate.
func BenchmarkRouteWriteParallel(b *testing.B) {
	front := benchFront(b, 4, YCSBWeights())
	// Materialize 64 partitions at site 0 so every route takes the fast path.
	for p := uint64(0); p < 64; p++ {
		if _, err := front.RouteWrite(0, []storage.RowRef{{Table: "t", Key: p * 100}}, nil); err != nil {
			b.Fatal(err)
		}
	}
	var nextClient atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := int(nextClient.Add(1))
		i := uint64(client)
		ws := make([]storage.RowRef, 3)
		for pb.Next() {
			i++
			base := (i * 7) % 64
			ws[0] = storage.RowRef{Table: "t", Key: base * 100}
			ws[1] = storage.RowRef{Table: "t", Key: ((base + 1) % 64) * 100}
			ws[2] = storage.RowRef{Table: "t", Key: ((base + 2) % 64) * 100}
			if _, err := front.RouteWrite(client, ws, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRouteReadParallel measures concurrent read routing (RNG and SVV
// snapshot costs).
func BenchmarkRouteReadParallel(b *testing.B) {
	front := benchFront(b, 8, YCSBWeights())
	cvv := vclock.New(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			front.RouteRead(1, cvv)
		}
	})
}

func BenchmarkRouteRead(b *testing.B) {
	front := benchFront(b, 8, YCSBWeights())
	cvv := vclock.New(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		front.RouteRead(1, cvv)
	}
}

// BenchmarkStatsRecordWrite records a ycsb_rmw-shaped stream
// (harnessRecorder) from two clients whose inter window stays live, so rows
// span 1 000 partitions and every sample adds inter pairs.
func BenchmarkStatsRecordWrite(b *testing.B) {
	record := harnessRecorder(NewStats(StatsConfig{}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		record()
	}
}

func BenchmarkBalanceFactor(b *testing.B) {
	before := []float64{100, 120, 90, 110}
	after := []float64{105, 115, 95, 105}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BalanceFactor(before, after)
	}
}
