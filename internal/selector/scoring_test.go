package selector

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynamast/internal/vclock"
)

// raceEnabled is set by race_test.go: under the race detector sync.Pool drops
// items at random, so allocation counts are not meaningful.
var raceEnabled bool

// referenceScores is the executable statement of Equations 2-8 that the
// one-pass scoring is checked against: for every live candidate it merges the
// co-access rows read through v into probabilities and evaluates SingleSited
// per (d1, d2) pair, one candidate at a time. It returns each live
// candidate's [balance, delay, intra, inter] and Equation 8 score.
func referenceScores(s *Selector, v view, parts []uint64, masters []int, cvv vclock.Vector) (feat map[int][4]float64, score map[int]float64) {
	inSet := make(map[uint64]int, len(parts))
	for i, id := range parts {
		inSet[id] = i
	}
	masterOf := func(id uint64) int {
		if i, ok := inSet[id]; ok {
			return masters[i]
		}
		return v.hint(id)
	}
	inWriteSet := func(id uint64) bool { _, ok := inSet[id]; return ok }
	probs := func(d1 uint64, intra bool) map[uint64]float64 {
		out := make(map[uint64]float64)
		pairs, n := v.coAccess(d1, intra, nil)
		for _, pr := range pairs {
			out[pr.D2] += pr.Count / n
		}
		return out
	}

	before := v.siteLoads(nil)
	weights := make([]float64, len(parts))
	for i, id := range parts {
		if weights[i] = v.accessWeight(id); weights[i] == 0 {
			weights[i] = 1
		}
	}
	need := cvv.Clone()
	for _, m := range masters {
		need = need.MaxInto(s.sites[m].SVV())
	}

	model := s.Weights()
	feat = make(map[int][4]float64)
	score = make(map[int]float64)
	for cand := 0; cand < s.m; cand++ {
		if s.downSites[cand].Load() {
			continue
		}
		after := append([]float64(nil), before...)
		for i, m := range masters {
			if m != cand {
				after[m] = math.Max(0, after[m]-weights[i])
				after[cand] += weights[i]
			}
		}
		balance := BalanceFactor(before, after)
		delay := RefreshDelay(need, s.sites[cand].SVV())
		var intra, inter float64
		for _, d1 := range parts {
			for d2, p := range probs(d1, true) {
				intra += p * SingleSited(cand, d1, d2, masterOf, inWriteSet)
			}
			for d2, p := range probs(d1, false) {
				inter += p * SingleSited(cand, d1, d2, masterOf, inWriteSet)
			}
		}
		feat[cand] = [4]float64{balance, delay, intra, inter}
		score[cand] = model.Benefit(balance, delay, intra, inter)
	}
	return feat, score
}

// countingView wraps a view and tallies what one scoring decision asks of it.
type countingView struct {
	view
	parts         []uint64 // the write set being scored
	coAccessCalls int
	outside       int // row entries outside the write set
	hintLookups   int
}

func (c *countingView) reset(parts []uint64) {
	c.parts, c.coAccessCalls, c.outside, c.hintLookups = parts, 0, 0, 0
}

func (c *countingView) coAccess(d1 uint64, intra bool, buf []CoPair) ([]CoPair, float64) {
	c.coAccessCalls++
	out, n := c.view.coAccess(d1, intra, buf)
	for _, pr := range out[len(buf):] {
		if !slices.Contains(c.parts, pr.D2) {
			c.outside++
		}
	}
	return out, n
}

func (c *countingView) hint(p uint64) int {
	c.hintLookups++
	return c.view.hint(p)
}

// scoringCase is one randomized decision: the scoring selector (the home
// shard of its group), the counting view over the group, a write set with
// its masters, and a session vector.
type scoringCase struct {
	sel     *Selector
	view    *countingView
	parts   []uint64
	masters []int
	cvv     vclock.Vector
}

// randomSites builds m fake sites with random version vectors.
func randomSites(rng *rand.Rand, m int) []DataSite {
	sites := make([]DataSite, m)
	for i := range sites {
		svv := vclock.New(m)
		for k := range svv {
			svv[k] = uint64(rng.Intn(50))
		}
		sites[i] = &sharedVVSite{benchSite{id: i, svv: svv}}
	}
	return sites
}

func randomWeights(rng *rand.Rand) Weights {
	return []Weights{
		YCSBWeights(), TPCCWeights(), SmallBankWeights(),
		{IntraTxn: 1, InterTxn: 1},
	}[rng.Intn(4)]
}

func randomVector(rng *rand.Rand, m int) vclock.Vector {
	v := vclock.New(m)
	for k := range v {
		v[k] = uint64(rng.Intn(60))
	}
	return v
}

// pickWriteSet draws 1-8 distinct partitions from universe, sorted.
func pickWriteSet(rng *rand.Rand, universe []uint64) []uint64 {
	k := 1 + rng.Intn(8)
	parts := make([]uint64, 0, k)
	for _, i := range rng.Perm(len(universe))[:k] {
		parts = append(parts, universe[i])
	}
	slices.Sort(parts)
	return parts
}

// learnRows feeds record with 0-500 co-access pairs per written partition:
// partners drawn from the write set itself and from others, clients spread
// over every stripe, all at one instant so consecutive samples of a client
// also pair up inter-transaction.
func learnRows(rng *rand.Rand, parts, others []uint64, record func(client int, parts []uint64, now time.Time)) {
	now := time.Now()
	for _, d1 := range parts {
		for left := rng.Intn(4) * rng.Intn(168); left > 0; { // 0 on a quarter of the rows
			ws := []uint64{d1}
			for n := 1 + rng.Intn(3); n > 0; n-- {
				d2 := others[rng.Intn(len(others))]
				if rng.Intn(4) == 0 {
					d2 = parts[rng.Intn(len(parts))]
				}
				if !slices.Contains(ws, d2) {
					ws = append(ws, d2)
					left--
				}
			}
			slices.Sort(ws)
			record(rng.Intn(64), ws, now)
		}
	}
}

// newGroupCase builds a group of the given shard count over fake sites and
// a write set that may span shards, scored by its home shard over the
// group view.
func newGroupCase(t *testing.T, rng *rand.Rand, shards int, learn bool) scoringCase {
	t.Helper()
	m := 2 + rng.Intn(7)
	stats := StatsConfig{Stripes: []int{1, 16}[rng.Intn(2)]}
	g := newFakeGroup(t, randomSites(rng, m), shards, randomWeights(rng), stats)
	c := scoringCase{view: &countingView{view: g}, cvv: randomVector(rng, m)}

	var universe []uint64
	for p := uint64(0); p < 240; p++ {
		universe = append(universe, p)
		g.ShardFor(p).RegisterPartition(p, rng.Intn(m))
	}
	c.parts = pickWriteSet(rng, universe)
	c.sel = g.ShardFor(c.parts[0])
	for _, p := range c.parts {
		c.masters = append(c.masters, g.MasterOf(p))
	}
	if learn {
		learnRows(rng, c.parts, universe, g.dispatchRecord)
	}
	for i := 0; i < shards; i++ {
		for s := range g.Shard(i).siteLoad {
			addFloat(&g.Shard(i).siteLoad[s], float64(rng.Intn(1000)))
		}
	}
	if rng.Intn(2) == 0 {
		g.MarkDown(rng.Intn(m))
	}
	return c
}

// checkAgainstReference asserts that the one-pass features of every live
// candidate equal the per-candidate SingleSited reference, that the chosen
// destination is the reference's, and that the decision read each row once
// and looked up one hint per row entry outside the write set.
func checkAgainstReference(t *testing.T, c scoringCase) {
	t.Helper()
	feat, score := referenceScores(c.sel, c.view, c.parts, c.masters, c.cvv)

	var sc scoreScratch
	sc.localize(c.view, c.parts, c.masters, c.sel.m)
	for cand, f := range feat {
		if got := sc.intra.score(cand); math.Abs(got-f[2]) > 1e-9 {
			t.Fatalf("parts %v cand %d: intra = %.12g, reference %.12g", c.parts, cand, got, f[2])
		}
		if got := sc.inter.score(cand); math.Abs(got-f[3]) > 1e-9 {
			t.Fatalf("parts %v cand %d: inter = %.12g, reference %.12g", c.parts, cand, got, f[3])
		}
	}

	c.view.reset(c.parts)
	dest, got, err := c.sel.decide(c.view, c.parts, c.masters, c.cvv)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(c.parts); c.view.coAccessCalls != want {
		t.Fatalf("parts %v: %d coAccess reads in one decision, want %d (one per partition and kind)",
			c.parts, c.view.coAccessCalls, want)
	}
	if c.view.hintLookups != c.view.outside {
		t.Fatalf("parts %v: %d hint lookups for %d row entries outside the write set, want one each",
			c.parts, c.view.hintLookups, c.view.outside)
	}
	for k, f := range feat[dest] {
		if math.Abs(got[k]-f) > 1e-9*math.Max(1, math.Abs(f)) {
			t.Fatalf("parts %v: decide's features %v for site %d, reference %v", c.parts, got, dest, feat[dest])
		}
	}

	// First candidate wins on equal scores. The reference sums each row in
	// map order, so two candidates the model cannot tell apart may differ in
	// its last bits: only then is any of the near-maximal candidates right.
	best := -1
	for cand := 0; cand < c.sel.m; cand++ {
		if s, live := score[cand]; live && (best < 0 || s > score[best]) {
			best = cand
		}
	}
	runnerUp := math.Inf(-1)
	for cand, s := range score {
		if cand != best {
			runnerUp = max(runnerUp, s)
		}
	}
	tol := 1e-9 * math.Max(1, math.Abs(score[best]))
	if _, live := score[dest]; !live {
		t.Fatalf("parts %v: chose down or unknown site %d", c.parts, dest)
	}
	if score[best]-runnerUp > tol && dest != best {
		t.Fatalf("parts %v: chose %d (reference score %.12g), reference chooses %d (%.12g)",
			c.parts, dest, score[dest], best, score[best])
	}
	if score[best]-score[dest] > tol {
		t.Fatalf("parts %v: chose %d with reference score %.12g, best is %d with %.12g",
			c.parts, dest, score[dest], best, score[best])
	}
}

// TestOnePassScoringMatchesReference drives randomized placements, write
// sets, learned rows and down sites through a one-shard group
// ("standalone") and a 2-shard group whose write sets may span shards.
func TestOnePassScoringMatchesReference(t *testing.T) {
	for name, shards := range map[string]int{"standalone": 1, "group": 2} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			for trial := 0; trial < 60; trial++ {
				// Every fifth trial has no statistics at all: every
				// localization score is exactly zero and ties everywhere.
				checkAgainstReference(t, newGroupCase(t, rng, shards, trial%5 != 0))
			}
		})
	}
}

// TestScoringTiesGoToFirstCandidate pins the tie rule on exact arithmetic:
// with only the localization features weighted, candidates that no learned
// pair distinguishes score identically and the lowest live site id wins.
func TestScoringTiesGoToFirstCandidate(t *testing.T) {
	build := func(stripes int) (*Group, []uint64, []int) {
		sites := make([]DataSite, 5)
		for i := range sites {
			sites[i] = &sharedVVSite{benchSite{id: i, svv: vclock.New(5)}}
		}
		g := newFakeGroup(t, sites, 1, Weights{IntraTxn: 1, InterTxn: 1}, StatsConfig{Stripes: stripes})
		// Write set {10 @ site 3, 20 @ site 2}; 11 lives with 10, 21 with 20.
		sel := g.Shard(0)
		sel.RegisterPartition(10, 3)
		sel.RegisterPartition(11, 3)
		sel.RegisterPartition(20, 2)
		sel.RegisterPartition(21, 2)
		return g, []uint64{10, 20}, []int{3, 2}
	}
	for _, stripes := range []int{1, 16} {
		g, parts, masters := build(stripes)
		sel := g.Shard(0)
		// No statistics: all five candidates score 0.
		if dest, _, _ := sel.decide(g, parts, masters, nil); dest != 0 {
			t.Fatalf("stripes=%d, no statistics: chose %d, want 0", stripes, dest)
		}
		g.MarkDown(0)
		if dest, _, _ := sel.decide(g, parts, masters, nil); dest != 1 {
			t.Fatalf("stripes=%d, no statistics, site 0 down: chose %d, want 1", stripes, dest)
		}
		g.MarkUp(0)

		// Each written partition always travels with its neighbour, from
		// clients on different stripes. Moving the set to site 2 or 3 splits
		// one pair (-1), anywhere else splits both (-2): 2 and 3 tie, 2 wins.
		now := time.Now()
		for client := 0; client < 8; client++ {
			sel.stats.RecordWrite(client, []uint64{10, 11}, now)
			sel.stats.RecordWrite(client+8, []uint64{20, 21}, now)
		}
		_, score := referenceScores(sel, g, parts, masters, nil)
		if score[2] != score[3] || score[2] <= score[0] {
			t.Fatalf("stripes=%d: reference scores %v do not tie sites 2 and 3 on top", stripes, score)
		}
		if dest, _, _ := sel.decide(g, parts, masters, nil); dest != 2 {
			t.Fatalf("stripes=%d: chose %d, want 2 (first of the tied sites 2 and 3)", stripes, dest)
		}
	}
}

// TestScoringConcurrentWithRecordWrite scores while other clients feed the
// tracker (run under -race): the reader copies rows out under the stripe
// locks and scores outside them.
func TestScoringConcurrentWithRecordWrite(t *testing.T) {
	g, parts, masters := scoringFixture(t, 64, 4, 16)
	sel := g.Shard(0)
	cvv := vclock.New(4)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			now := time.Now()
			for i := 0; i < 2000; i++ {
				d1 := parts[rng.Intn(len(parts))]
				sel.stats.RecordWrite(rng.Intn(64), []uint64{d1, 1000 + uint64(rng.Intn(256))}, now)
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				dest, _, err := sel.decide(g, parts, masters, cvv)
				if err != nil || dest < 0 || dest >= 4 {
					t.Errorf("decide = %d, %v", dest, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDecideAllocations holds a warm decision over 256-pair rows to the
// session-vector clone plus slack: rows, per-site arrays and load snapshots
// all come from the pooled scratch.
func TestDecideAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	g, parts, masters := scoringFixture(t, 256, 4, 16)
	cvv := vclock.New(4)
	decide := func() {
		if _, _, err := g.Shard(0).decide(g, parts, masters, cvv); err != nil {
			t.Fatal(err)
		}
	}
	decide() // grow the scratch
	if allocs := testing.AllocsPerRun(100, decide); allocs > 4 {
		t.Fatalf("warm decide allocates %.0f times, want <= 4", allocs)
	}
}

// grantCountingSite is a fake data site that counts the grants reaching it.
type grantCountingSite struct {
	sharedVVSite
	grants atomic.Int64
}

func (s *grantCountingSite) Grant(parts []uint64, relVV vclock.Vector, from int, epoch uint64) (vclock.Vector, error) {
	s.grants.Add(1)
	return s.sharedVVSite.Grant(parts, relVV, from, epoch)
}

// TestDecideSideEffectFree scores a write set whose co-access rows name a
// partition no shard has seen: the decision must read its initial placement
// as the hint without creating the partition or granting it anywhere.
func TestDecideSideEffectFree(t *testing.T) {
	for _, shards := range []int{1, 4} {
		const m = 3
		sites := make([]*grantCountingSite, m)
		dsites := make([]DataSite, m)
		for i := range sites {
			sites[i] = &grantCountingSite{sharedVVSite: sharedVVSite{benchSite{id: i, svv: vclock.New(m)}}}
			dsites[i] = sites[i]
		}
		g := newFakeGroup(t, dsites, shards, YCSBWeights(), StatsConfig{})
		parts := []uint64{1, 2}
		g.RegisterPartitionEpoch(1, 0, 0)
		g.RegisterPartitionEpoch(2, 1, 0)
		const unseen = 777
		for client := 0; client < 8; client++ {
			g.dispatchRecord(client, []uint64{1, 2, unseen}, time.Now())
		}
		before := make([]int, shards)
		for i := range before {
			before[i], _ = g.Shard(i).shardResidency()
		}
		if _, _, err := g.ShardFor(1).decide(g, parts, []int{0, 1}, nil); err != nil {
			t.Fatal(err)
		}
		for i := range before {
			if after, _ := g.Shard(i).shardResidency(); after != before[i] {
				t.Fatalf("shards=%d: scoring created partition entries on shard %d (%d -> %d)", shards, i, before[i], after)
			}
		}
		for i, s := range sites {
			if n := s.grants.Load(); n != 0 {
				t.Fatalf("shards=%d: scoring sent %d grant(s) to site %d", shards, n, i)
			}
		}
	}
}
