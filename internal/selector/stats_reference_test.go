package selector

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// mapStats is the nested-map statistics tracker that Stats replaced, kept
// verbatim as the golden reference: every count Stats reports must equal
// this tracker's on the same stream (TestStatsMatchesMapReference).

// mapStats learns workload access patterns (§V-B): per-partition write access
// frequencies (for the load-balance feature), and intra-/inter-transaction
// co-access counts (for the localization features). Write sets are sampled
// into a bounded history queue; when a sample expires its contribution is
// decremented, letting the statistics track workload change.
//
// The tracker is striped by client: every routed write locks only the
// stripe its client hashes to, so concurrent RecordWrite calls from
// different clients do not serialize on one mutex (the selector's routing
// hot path). Each stripe is a complete single-lock tracker with the
// configured history/decay bounds; readers (AccessWeight, CoAccess)
// visit every stripe. Because inter-transaction correlation is
// per-client and intra-transaction correlation is per-write-set, striping
// by client preserves both exactly; a single client's stream behaves
// identically to the pre-striping global tracker (see
// TestStripedStatsMatchesReference).
type mapStats struct {
	stripes []mapStripe
	// decayThreshold is the configured (per-stripe) decay trigger; the
	// selector's materialized-load decay reuses it.
	decayThreshold float64
}

// mapStripe is one client-hash stripe: the original single-mutex tracker.
type mapStripe struct {
	mu sync.Mutex

	// Write access frequency, for f_balance. Counted for every routed
	// write (not sampled): access[p] is partition p's recent write count.
	access      map[uint64]float64
	totalAccess float64
	// decayThreshold triggers halving of all access counts so frequencies
	// follow the recent workload.
	decayThreshold float64

	// Read access frequency, for the placement policy's replica-demand
	// signal. Decays on the same threshold as write access.
	reads      map[uint64]float64
	totalReads float64

	// Co-access statistics from sampled write sets.
	intra       map[uint64]map[uint64]float64 // intra[d1][d2]: times d1,d2 written in one txn
	inter       map[uint64]map[uint64]float64 // inter[d1][d2]: d2 written within Δt after d1 by same client
	occurrences map[uint64]float64            // samples containing d1 (P(d2|d1) denominator)

	history  []mapSample // ring buffer of samples
	histNext int
	histLen  int

	// Per-client recent write sets for inter-transaction correlation.
	recent      map[int]mapRecentTxn
	interWindow time.Duration

	sampleEvery int // record 1 of every sampleEvery write sets
	sampleTick  int

	_ [40]byte // pad stripes apart (mutex + hot fields per cache line)
}

type mapSample struct {
	parts      []uint64
	interPairs [][2]uint64 // inter-txn pairs this sample contributed
}

// mapRecentTxn is a client's last write set, held by value (small sets inline)
// so it never aliases a history sample's arrays — which lets RecordWrite
// recycle an expired sample's backing arrays for the sample replacing it,
// keeping the hot path allocation-free once the ring has filled.
type mapRecentTxn struct {
	at     time.Time
	n      int
	inline [8]uint64
	spill  []uint64 // write sets larger than inline
}

func (r *mapRecentTxn) view() []uint64 {
	if r.spill != nil {
		return r.spill
	}
	return r.inline[:r.n]
}

func mapSetRecent(m map[int]mapRecentTxn, client int, parts []uint64, at time.Time) {
	r := mapRecentTxn{at: at, n: len(parts)}
	if len(parts) <= len(r.inline) {
		copy(r.inline[:], parts)
	} else {
		r.spill = append([]uint64(nil), parts...)
	}
	m[client] = r
}

// newMapStats returns a tracker with the given configuration.
func newMapStats(cfg StatsConfig) *mapStats {
	if cfg.HistorySize == 0 {
		cfg.HistorySize = 4096
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 1
	}
	if cfg.InterWindow == 0 {
		cfg.InterWindow = 50 * time.Millisecond
	}
	if cfg.DecayThreshold == 0 {
		cfg.DecayThreshold = 100_000
	}
	if cfg.Stripes == 0 {
		cfg.Stripes = defaultStatsStripes
	}
	n := 1
	for n < cfg.Stripes {
		n *= 2
	}
	st := &mapStats{
		stripes:        make([]mapStripe, n),
		decayThreshold: cfg.DecayThreshold,
	}
	for i := range st.stripes {
		sp := &st.stripes[i]
		sp.access = make(map[uint64]float64)
		sp.reads = make(map[uint64]float64)
		sp.decayThreshold = cfg.DecayThreshold
		sp.intra = make(map[uint64]map[uint64]float64)
		sp.inter = make(map[uint64]map[uint64]float64)
		sp.occurrences = make(map[uint64]float64)
		sp.history = make([]mapSample, cfg.HistorySize)
		sp.recent = make(map[int]mapRecentTxn)
		sp.interWindow = cfg.InterWindow
		sp.sampleEvery = cfg.SampleEvery
	}
	return st
}

// Stripes returns the stripe count (a power of two).
func (st *mapStats) Stripes() int { return len(st.stripes) }

// stripe returns the stripe client hashes to. Client ids are small dense
// integers, so a Fibonacci multiply-shift spreads consecutive ids across
// stripes.
func (st *mapStats) stripe(client int) *mapStripe {
	return &st.stripes[st.stripeIndex(client)]
}

func (st *mapStats) stripeIndex(client int) int {
	return int((uint64(client) * 0x9E3779B97F4A7C15) >> 32 & uint64(len(st.stripes)-1))
}

// RecordWrite ingests one routed write transaction's partition set for
// client. Access counts are always updated; co-access statistics are
// updated for sampled transactions. Only the client's stripe is locked.
func (st *mapStats) RecordWrite(client int, parts []uint64, now time.Time) {
	sp := st.stripe(client)
	sp.mu.Lock()
	defer sp.mu.Unlock()

	for _, p := range parts {
		sp.access[p]++
	}
	sp.totalAccess += float64(len(parts))
	if sp.totalAccess > sp.decayThreshold {
		for p := range sp.access {
			sp.access[p] /= 2
		}
		sp.totalAccess /= 2
	}

	sp.sampleTick++
	if sp.sampleTick%sp.sampleEvery != 0 {
		return
	}

	// Expire the sample this one replaces, then recycle its backing arrays
	// for the new sample (expiry and addition commute, so reordering them
	// ahead of the increments below leaves every count unchanged).
	old := sp.history[sp.histNext]
	if sp.histLen == len(sp.history) {
		sp.expireLocked(old)
	} else {
		sp.histLen++
	}
	sm := mapSample{parts: append(old.parts[:0], parts...), interPairs: old.interPairs[:0]}

	// Intra-transaction pairs.
	for i, d1 := range parts {
		sp.occurrences[d1]++
		for j, d2 := range parts {
			if i == j {
				continue
			}
			mapAddPair(sp.intra, d1, d2, 1)
		}
	}

	// Inter-transaction pairs: partitions of this client's previous write
	// set within Δt correlate with this write set.
	if prev, ok := sp.recent[client]; ok && now.Sub(prev.at) <= sp.interWindow {
		for _, d1 := range prev.view() {
			for _, d2 := range parts {
				if d1 == d2 {
					continue
				}
				mapAddPair(sp.inter, d1, d2, 1)
				sm.interPairs = append(sm.interPairs, [2]uint64{d1, d2})
			}
		}
	}
	mapSetRecent(sp.recent, client, parts, now)

	sp.history[sp.histNext] = sm
	sp.histNext = (sp.histNext + 1) % len(sp.history)
}

// RecordRead ingests one routed read transaction's partition set for client
// (partial-replication read routing feeds it). Only read access frequencies
// are tracked — reads contribute nothing to the remastering co-access model.
// Only the client's stripe is locked.
func (st *mapStats) RecordRead(client int, parts []uint64) {
	sp := st.stripe(client)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for _, p := range parts {
		sp.reads[p]++
	}
	sp.totalReads += float64(len(parts))
	if sp.totalReads > sp.decayThreshold {
		for p := range sp.reads {
			sp.reads[p] /= 2
		}
		sp.totalReads /= 2
	}
}

// ReadWeight returns partition p's recent read access count, aggregated
// across stripes.
func (st *mapStats) ReadWeight(p uint64) float64 {
	var w float64
	for i := range st.stripes {
		sp := &st.stripes[i]
		sp.mu.Lock()
		w += sp.reads[p]
		sp.mu.Unlock()
	}
	return w
}

// expireLocked reverses an old sample's contributions.
func (sp *mapStripe) expireLocked(old mapSample) {
	for i, d1 := range old.parts {
		if sp.occurrences[d1] > 0 {
			sp.occurrences[d1]--
		}
		for j, d2 := range old.parts {
			if i == j {
				continue
			}
			mapAddPair(sp.intra, d1, d2, -1)
		}
	}
	for _, pr := range old.interPairs {
		mapAddPair(sp.inter, pr[0], pr[1], -1)
	}
}

func mapAddPair(m map[uint64]map[uint64]float64, d1, d2 uint64, delta float64) {
	row := m[d1]
	if row == nil {
		if delta <= 0 {
			return
		}
		row = make(map[uint64]float64)
		m[d1] = row
	}
	v := row[d2] + delta
	if v <= 0 {
		delete(row, d2)
		if len(row) == 0 {
			delete(m, d1)
		}
		return
	}
	row[d2] = v
}

// AccessWeight returns partition p's recent write access count, aggregated
// across stripes.
func (st *mapStats) AccessWeight(p uint64) float64 {
	var w float64
	for i := range st.stripes {
		sp := &st.stripes[i]
		sp.mu.Lock()
		w += sp.access[p]
		sp.mu.Unlock()
	}
	return w
}

// occurrencesOf returns the aggregate sample count containing partition p
// (the P(d2|p) denominator); test hook.
func (st *mapStats) occurrencesOf(p uint64) float64 {
	var n float64
	for i := range st.stripes {
		sp := &st.stripes[i]
		sp.mu.Lock()
		n += sp.occurrences[p]
		sp.mu.Unlock()
	}
	return n
}

// CoAccess is the tracker's one co-access reader. For source partition d1 it
// appends every non-empty stripe's raw (d2, count) row entries to buf and
// returns the extended slice together with n, the number of samples
// containing d1 summed over all stripes. P(d2|d1) (intra) or
// P(d2|d1; T<=Δt) (inter) is the sum of d2's counts divided by n — the
// unstriped tracker's probability over the same samples — and because every
// consumer is linear in the counts, callers weight each entry by Count/n
// without merging stripes first. When n is 0 (d1 in no live sample) nothing
// is appended.
//
// Entries are copied out under each stripe's lock and consumed by the caller
// with no stripe lock held, so the caller may call back into mapStats. Passing a
// reused buf[:0] keeps the reader allocation-free once buf has grown to the
// row size.
func (st *mapStats) CoAccess(d1 uint64, intra bool, buf []CoPair) ([]CoPair, float64) {
	start := len(buf)
	var n float64
	for i := range st.stripes {
		sp := &st.stripes[i]
		sp.mu.Lock()
		n += sp.occurrences[d1]
		src := sp.intra
		if !intra {
			src = sp.inter
		}
		for d2, c := range src[d1] {
			buf = append(buf, CoPair{D2: d2, Count: c})
		}
		sp.mu.Unlock()
	}
	if n == 0 {
		// Inter rows can outlive d1's own (older) samples.
		return buf[:start], 0
	}
	return buf, n
}

// statsOp is one step of a recorded statistics stream.
type statsOp struct {
	client int
	parts  []uint64
	at     time.Time
	read   bool
}

// goldenStream draws n seeded operations over 48 partitions: nine clients,
// write sets of 1-12 distinct partitions (over 8 takes the recent-set spill
// path), one in five a read, 0-400 µs between operations so a 1 ms inter
// window is sometimes live and sometimes lapsed.
func goldenStream(seed int64, n int) []statsOp {
	rng := rand.New(rand.NewSource(seed))
	at := time.Unix(0, 0)
	ops := make([]statsOp, n)
	for i := range ops {
		at = at.Add(time.Duration(rng.Intn(400)) * time.Microsecond)
		parts := make([]uint64, 0, 12)
		for _, p := range rng.Perm(48)[:1+rng.Intn(12)] {
			parts = append(parts, uint64(p))
		}
		ops[i] = statsOp{client: rng.Intn(9), parts: parts, at: at, read: rng.Intn(5) == 0}
	}
	return ops
}

// rowSums sums a CoAccess read per d2.
func rowSums(pairs []CoPair) map[uint64]float64 {
	sums := make(map[uint64]float64, len(pairs))
	for _, pr := range pairs {
		sums[pr.D2] += pr.Count
	}
	return sums
}

// TestStatsMatchesMapReference drives seeded streams through the slot
// tracker and the nested-map reference with small history and decay bounds,
// so expiry, decay halvings and recent-set sweeps all fire, and requires
// every count both report to be exactly equal.
func TestStatsMatchesMapReference(t *testing.T) {
	for _, every := range []int{1, 3} {
		cfg := StatsConfig{
			HistorySize:    16,
			SampleEvery:    every,
			InterWindow:    time.Millisecond,
			DecayThreshold: 200,
			Stripes:        4,
		}
		n := 20_000
		if raceEnabled {
			n = 5_000 // single-goroutine test; the detector only slows it
		}
		for seed := int64(1); seed <= 5; seed++ {
			st, ref := NewStats(cfg), newMapStats(cfg)
			ops := goldenStream(seed, n)
			for i, op := range ops {
				if op.read {
					st.RecordRead(op.client, op.parts)
					ref.RecordRead(op.client, op.parts)
				} else {
					st.RecordWrite(op.client, op.parts, op.at)
					ref.RecordWrite(op.client, op.parts, op.at)
				}
				if i%997 == 0 || i == len(ops)-1 {
					compareWithReference(t, st, ref, fmt.Sprintf("every=%d seed=%d op=%d", every, seed, i))
				}
			}
		}
	}
}

func compareWithReference(t *testing.T, st *Stats, ref *mapStats, at string) {
	t.Helper()
	for p := uint64(0); p < 48; p++ {
		if got, want := st.AccessWeight(p), ref.AccessWeight(p); got != want {
			t.Fatalf("%s: AccessWeight(%d) = %g, reference %g", at, p, got, want)
		}
		if got, want := st.ReadWeight(p), ref.ReadWeight(p); got != want {
			t.Fatalf("%s: ReadWeight(%d) = %g, reference %g", at, p, got, want)
		}
		if got, want := st.occurrencesOf(p), ref.occurrencesOf(p); got != want {
			t.Fatalf("%s: occurrencesOf(%d) = %g, reference %g", at, p, got, want)
		}
		for _, intra := range []bool{true, false} {
			gotPairs, gotN := st.CoAccess(p, intra, nil)
			wantPairs, wantN := ref.CoAccess(p, intra, nil)
			if gotN != wantN {
				t.Fatalf("%s: CoAccess(%d, intra=%v) n = %g, reference %g", at, p, intra, gotN, wantN)
			}
			got, want := rowSums(gotPairs), rowSums(wantPairs)
			if len(got) != len(want) {
				t.Fatalf("%s: CoAccess(%d, intra=%v) has %d partners, reference %d", at, p, intra, len(got), len(want))
			}
			for d2, c := range want {
				if got[d2] != c {
					t.Fatalf("%s: CoAccess(%d->%d, intra=%v) = %g, reference %g", at, p, d2, intra, got[d2], c)
				}
			}
		}
	}
}

// TestCoAccessDeterministic pins that co-access rows come out in an order
// fixed by the recorded stream: two trackers fed one stream return identical
// slices, and a decision over a group rebuilt from one stream returns
// bit-identical features every time.
func TestCoAccessDeterministic(t *testing.T) {
	cfg := StatsConfig{HistorySize: 64, InterWindow: time.Millisecond, Stripes: 4}
	a, b := NewStats(cfg), NewStats(cfg)
	for _, op := range goldenStream(11, 5000) {
		a.RecordWrite(op.client, op.parts, op.at)
		b.RecordWrite(op.client, op.parts, op.at)
	}
	for p := uint64(0); p < 48; p++ {
		for _, intra := range []bool{true, false} {
			pa, na := a.CoAccess(p, intra, nil)
			pb, nb := b.CoAccess(p, intra, nil)
			if na != nb || !slices.Equal(pa, pb) {
				t.Fatalf("CoAccess(%d, intra=%v) differs between two trackers fed one stream", p, intra)
			}
		}
	}

	for seed := int64(21); seed < 24; seed++ {
		var want [4]float64
		for build := 0; build < 20; build++ {
			c := newGroupCase(t, rand.New(rand.NewSource(seed)), 2, true)
			_, feat, err := c.sel.decide(c.view, c.parts, c.masters, c.cvv)
			if err != nil {
				t.Fatal(err)
			}
			if build == 0 {
				want = feat
			} else if feat != want {
				t.Fatalf("seed %d build %d: features %v, first build %v", seed, build, feat, want)
			}
		}
	}
}
