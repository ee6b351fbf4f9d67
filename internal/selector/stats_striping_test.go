package selector

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dynamast/internal/storage"
)

// refTrackers builds one single-lock reference tracker per stripe of st,
// so a recorded stream can be mirrored stripe-for-stripe.
func refTrackers(cfg StatsConfig, stripes int) []*Stats {
	cfg.Stripes = 1
	refs := make([]*Stats, stripes)
	for i := range refs {
		refs[i] = NewStats(cfg)
	}
	return refs
}

// TestStripedStatsMatchesReference is the striping golden test: an
// identical stream of write sets is driven through the striped tracker and
// through per-stripe single-lock reference trackers (the pre-striping
// implementation, recovered with Stripes:1). Access frequencies, sample
// occurrences and co-access probabilities must match exactly — including
// across decay halvings and history expiry — proving striping changed the
// synchronization, not the statistics.
func TestStripedStatsMatchesReference(t *testing.T) {
	cfg := StatsConfig{
		HistorySize:    32, // small: forces expiry
		DecayThreshold: 64, // small: forces decay halvings
		InterWindow:    time.Minute,
		Stripes:        4,
	}
	st := NewStats(cfg)
	refs := refTrackers(cfg, st.Stripes())

	rng := rand.New(rand.NewSource(7))
	now := time.Now()
	for i := 0; i < 2000; i++ {
		client := rng.Intn(13)
		n := 1 + rng.Intn(4)
		parts := make([]uint64, 0, n)
		for len(parts) < n {
			p := uint64(rng.Intn(20))
			dup := false
			for _, q := range parts {
				if q == p {
					dup = true
				}
			}
			if !dup {
				parts = append(parts, p)
			}
		}
		at := now.Add(time.Duration(i) * time.Millisecond)
		st.RecordWrite(client, parts, at)
		refs[st.stripeIndex(client)].RecordWrite(client, parts, at)
	}

	sumRef := func(f func(*Stats) float64) float64 {
		var s float64
		for _, r := range refs {
			s += f(r)
		}
		return s
	}
	for p := uint64(0); p < 20; p++ {
		if got, want := st.AccessWeight(p), sumRef(func(r *Stats) float64 { return r.AccessWeight(p) }); got != want {
			t.Fatalf("AccessWeight(%d) = %g, reference %g", p, got, want)
		}
		if got, want := st.occurrencesOf(p), sumRef(func(r *Stats) float64 { return r.occurrencesOf(p) }); got != want {
			t.Fatalf("occurrencesOf(%d) = %g, reference %g", p, got, want)
		}
	}

	// Co-access: the striped tracker divides summed pair counts by summed
	// occurrences; reconstruct the same quantity from the references.
	for _, intra := range []bool{true, false} {
		for d1 := uint64(0); d1 < 20; d1++ {
			var occ float64
			counts := map[uint64]float64{}
			for _, r := range refs {
				o := r.occurrencesOf(d1)
				occ += o
				for d2, p := range coAccessProbs(r, d1, intra) {
					counts[d2] += p * o
				}
			}
			want := map[uint64]float64{}
			if occ > 0 {
				for d2, c := range counts {
					want[d2] = c / occ
				}
			}
			got := coAccessProbs(st, d1, intra)
			if len(got) != len(want) {
				t.Fatalf("CoAccess(%d, intra=%v): %d pairs, reference %d", d1, intra, len(got), len(want))
			}
			for d2, p := range want {
				if math.Abs(got[d2]-p) > 1e-12 {
					t.Fatalf("CoAccess(%d->%d, intra=%v) = %g, reference %g", d1, d2, intra, got[d2], p)
				}
			}
		}
	}
}

// TestStripedStatsSingleClientIdentical pins the per-stripe configuration
// semantics: one client's stream lands entirely on one stripe, which has
// the full (undivided) history and decay bounds, so the striped tracker is
// bit-identical to a single-lock tracker — decay fires at the same write.
func TestStripedStatsSingleClientIdentical(t *testing.T) {
	cfg := StatsConfig{HistorySize: 8, DecayThreshold: 10, Stripes: 16}
	striped := NewStats(cfg)
	cfg.Stripes = 1
	single := NewStats(cfg)

	now := time.Now()
	for i := 0; i < 40; i++ {
		parts := []uint64{uint64(i % 3), 5}
		striped.RecordWrite(7, parts, now)
		single.RecordWrite(7, parts, now)
		for p := uint64(0); p < 6; p++ {
			if a, b := striped.AccessWeight(p), single.AccessWeight(p); a != b {
				t.Fatalf("write %d: AccessWeight(%d) diverged: striped %g, single %g", i, p, a, b)
			}
		}
	}
}

// TestSetWeightsConcurrent exercises the atomic weights swap against
// concurrent routing decisions; meaningful under -race (CI runs it so).
func TestSetWeightsConcurrent(t *testing.T) {
	g, _ := newCluster(t, 3, YCSBWeights())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			g.SetWeights(Weights{Balance: float64(i)})
			_ = g.Weights()
		}
	}()
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := uint64((c*200 + i)) * 200
				ws := []storage.RowRef{{Table: "t", Key: k}, {Table: "t", Key: k + 100}}
				if _, err := g.front.RouteWrite(c, ws, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	// Wait for the routers, then stop the weight swapper.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	<-done
}
