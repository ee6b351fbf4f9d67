package selector

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"dynamast/internal/storage"
	"dynamast/internal/vclock"
)

// raceEnabled is set by race_test.go: under the race detector sync.Pool drops
// items at random, so allocation counts are not meaningful.
var raceEnabled bool

// foreignBase splits the scoring tests' partition universe: ids below it are
// the scoring selector's own, ids at or above it resolve through
// ShardHooks.ForeignMaster — which is how the tests count hint lookups.
const foreignBase = uint64(1) << 40

// referenceScores is the executable statement of Equations 2-8 that the
// one-pass scoring is checked against: for every live candidate it merges the
// co-access rows into probabilities and evaluates SingleSited per (d1, d2)
// pair, one candidate at a time. It returns each live candidate's
// [balance, delay, intra, inter] and Equation 8 score.
func referenceScores(s *Selector, parts []uint64, infos []*partInfo, cvv vclock.Vector) (feat map[int][4]float64, score map[int]float64) {
	inSet := make(map[uint64]int, len(parts))
	for i, id := range parts {
		inSet[id] = i
	}
	masterOf := func(id uint64) int {
		if i, ok := inSet[id]; ok {
			return infos[i].master
		}
		return s.hintFor(id)
	}
	inWriteSet := func(id uint64) bool { _, ok := inSet[id]; return ok }
	probs := func(d1 uint64, intra bool) map[uint64]float64 {
		out := make(map[uint64]float64)
		pairs, n := s.coAccess(d1, intra, nil)
		for _, pr := range pairs {
			out[pr.D2] += pr.Count / n
		}
		return out
	}

	var before []float64
	if s.hooks.SiteLoads != nil {
		before = s.hooks.SiteLoads()
	} else {
		before = s.siteLoadSnapshot(nil)
	}
	weights := make([]float64, len(parts))
	for i, id := range parts {
		if weights[i] = s.accessWeight(id); weights[i] == 0 {
			weights[i] = 1
		}
	}
	need := cvv.Clone()
	for _, in := range infos {
		need = need.MaxInto(s.sites[in.master].SVV())
	}

	model := s.Weights()
	feat = make(map[int][4]float64)
	score = make(map[int]float64)
	for cand := 0; cand < s.m; cand++ {
		if s.downSites[cand].Load() {
			continue
		}
		after := append([]float64(nil), before...)
		for i, in := range infos {
			if in.master != cand {
				after[in.master] = math.Max(0, after[in.master]-weights[i])
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

// hookCounts tallies what one scoring decision asked of the hooks.
type hookCounts struct {
	parts          []uint64 // the write set being scored
	coAccessCalls  int
	foreignEntries int // row entries outside the write set with a foreign d2
	foreignLookups int // ForeignMaster calls
}

func (c *hookCounts) reset(parts []uint64) { *c = hookCounts{parts: parts} }

// counted wraps h's CoAccess and ForeignMaster so calls land in c.
func counted(h ShardHooks, c *hookCounts) ShardHooks {
	coAccess, foreign := h.CoAccess, h.ForeignMaster
	h.CoAccess = func(d1 uint64, intra bool, buf []CoPair) ([]CoPair, float64) {
		c.coAccessCalls++
		out, n := coAccess(d1, intra, buf)
		for _, pr := range out[len(buf):] {
			if !h.Owns(pr.D2) && !slices.Contains(c.parts, pr.D2) {
				c.foreignEntries++
			}
		}
		return out, n
	}
	h.ForeignMaster = func(p uint64) int {
		c.foreignLookups++
		return foreign(p)
	}
	return h
}

// scoringCase is one randomized decision: a scoring selector (stand-alone
// with counting hooks, or the home shard of a 2-shard group), a write set
// with its infos, and a session vector.
type scoringCase struct {
	sel    *Selector
	parts  []uint64
	infos  []*partInfo
	cvv    vclock.Vector
	counts *hookCounts
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

// newStandaloneCase builds a stand-alone selector whose foreign half of the
// universe resolves through a counting ForeignMaster hook.
func newStandaloneCase(t *testing.T, rng *rand.Rand, learn bool) scoringCase {
	t.Helper()
	m := 2 + rng.Intn(7)
	c := scoringCase{counts: &hookCounts{}, cvv: randomVector(rng, m)}
	foreignMaster := make(map[uint64]int)
	var sel *Selector
	hooks := counted(ShardHooks{
		Owns:          func(p uint64) bool { return p < foreignBase },
		ForeignMaster: func(p uint64) int { return foreignMaster[p] },
		CoAccess: func(d1 uint64, intra bool, buf []CoPair) ([]CoPair, float64) {
			return sel.stats.CoAccess(d1, intra, buf)
		},
	}, c.counts)
	var err error
	sel, err = New(Config{
		Sites:       randomSites(rng, m),
		Partitioner: func(ref storage.RowRef) uint64 { return ref.Key },
		Weights:     randomWeights(rng),
		Stats:       StatsConfig{Stripes: []int{1, 16}[rng.Intn(2)]},
		Hooks:       hooks,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.sel = sel

	var own, all []uint64
	for p := uint64(0); p < 120; p++ {
		own = append(own, p)
		sel.RegisterPartition(p, rng.Intn(m))
		foreignMaster[foreignBase+p] = rng.Intn(m)
		all = append(all, p, foreignBase+p)
	}
	c.parts = pickWriteSet(rng, own)
	for _, p := range c.parts {
		c.infos = append(c.infos, sel.part(p))
	}
	if learn {
		learnRows(rng, c.parts, all, sel.stats.RecordWrite)
	}
	for i := range sel.siteLoad {
		addFloat(&sel.siteLoad[i], float64(rng.Intn(1000)))
	}
	if rng.Intn(2) == 0 {
		sel.MarkDown(rng.Intn(m))
	}
	return c
}

// newGroupCase builds a 2-shard group over fake sites and a write set that
// may span both shards, scored by its home shard over group-wide statistics.
func newGroupCase(t *testing.T, rng *rand.Rand, learn bool) scoringCase {
	t.Helper()
	m := 2 + rng.Intn(7)
	c := scoringCase{counts: &hookCounts{}, cvv: randomVector(rng, m)}
	sites := randomSites(rng, m)
	var g *Group
	repls := make([]*Replicated, 2)
	weights := randomWeights(rng)
	stats := StatsConfig{Stripes: []int{1, 16}[rng.Intn(2)]}
	for i := range repls {
		// Every shard counts into the same tally; only the home shard scores.
		sel, err := New(Config{
			Sites:       sites,
			Partitioner: func(ref storage.RowRef) uint64 { return ref.Key },
			Weights:     weights,
			Stats:       stats,
			Hooks:       counted(GroupHooks(i, 2, func() *Group { return g }), c.counts),
		})
		if err != nil {
			t.Fatal(err)
		}
		repls[i] = NewReplicated(sel, 0, nil)
	}
	var err error
	if g, err = NewGroup(GroupConfig{Shards: repls}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Stop)

	var universe []uint64
	for p := uint64(0); p < 240; p++ {
		universe = append(universe, p)
		g.ShardFor(p).RegisterPartition(p, rng.Intn(m))
	}
	c.parts = pickWriteSet(rng, universe)
	c.sel = g.ShardFor(c.parts[0])
	for _, p := range c.parts {
		c.infos = append(c.infos, g.ShardFor(p).part(p))
	}
	if learn {
		learnRows(rng, c.parts, universe, g.dispatchRecord)
	}
	for i := 0; i < 2; i++ {
		for s := range g.Shard(i).siteLoad {
			addFloat(&g.Shard(i).siteLoad[s], float64(rng.Intn(1000)))
		}
	}
	if rng.Intn(2) == 0 {
		down := rng.Intn(m)
		g.Shard(0).MarkDown(down)
		g.Shard(1).MarkDown(down)
	}
	return c
}

// checkAgainstReference asserts that the one-pass features of every live
// candidate equal the per-candidate SingleSited reference, that the chosen
// destination is the reference's, and that the decision read each row once.
func checkAgainstReference(t *testing.T, c scoringCase) {
	t.Helper()
	feat, score := referenceScores(c.sel, c.parts, c.infos, c.cvv)

	var sc scoreScratch
	c.sel.localize(&sc, c.parts, c.infos)
	for cand, f := range feat {
		if got := sc.intra.score(cand); math.Abs(got-f[2]) > 1e-9 {
			t.Fatalf("parts %v cand %d: intra = %.12g, reference %.12g", c.parts, cand, got, f[2])
		}
		if got := sc.inter.score(cand); math.Abs(got-f[3]) > 1e-9 {
			t.Fatalf("parts %v cand %d: inter = %.12g, reference %.12g", c.parts, cand, got, f[3])
		}
	}

	c.counts.reset(c.parts)
	dest, err := c.sel.chooseDestination(c.parts, c.infos, c.cvv)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(c.parts); c.counts.coAccessCalls != want {
		t.Fatalf("parts %v: %d CoAccess reads in one decision, want %d (one per partition and kind)",
			c.parts, c.counts.coAccessCalls, want)
	}
	if c.counts.foreignLookups != c.counts.foreignEntries {
		t.Fatalf("parts %v: %d hint lookups for %d foreign row entries, want one each",
			c.parts, c.counts.foreignLookups, c.counts.foreignEntries)
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
// sets, learned rows and down sites through the stand-alone selector and
// through a 2-shard group.
func TestOnePassScoringMatchesReference(t *testing.T) {
	builders := map[string]func(*testing.T, *rand.Rand, bool) scoringCase{
		"standalone": newStandaloneCase,
		"group":      newGroupCase,
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			for trial := 0; trial < 60; trial++ {
				// Every fifth trial has no statistics at all: every
				// localization score is exactly zero and ties everywhere.
				checkAgainstReference(t, build(t, rng, trial%5 != 0))
			}
		})
	}
}

// TestScoringTiesGoToFirstCandidate pins the tie rule on exact arithmetic:
// with only the localization features weighted, candidates that no learned
// pair distinguishes score identically and the lowest live site id wins.
func TestScoringTiesGoToFirstCandidate(t *testing.T) {
	build := func(stripes int) (*Selector, []uint64, []*partInfo) {
		sites := make([]DataSite, 5)
		for i := range sites {
			sites[i] = &sharedVVSite{benchSite{id: i, svv: vclock.New(5)}}
		}
		sel, err := New(Config{
			Sites:       sites,
			Partitioner: func(ref storage.RowRef) uint64 { return ref.Key },
			Weights:     Weights{IntraTxn: 1, InterTxn: 1},
			Stats:       StatsConfig{Stripes: stripes},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Write set {10 @ site 3, 20 @ site 2}; 11 lives with 10, 21 with 20.
		sel.RegisterPartition(10, 3)
		sel.RegisterPartition(11, 3)
		sel.RegisterPartition(20, 2)
		sel.RegisterPartition(21, 2)
		return sel, []uint64{10, 20}, []*partInfo{sel.part(10), sel.part(20)}
	}
	for _, stripes := range []int{1, 16} {
		sel, parts, infos := build(stripes)
		// No statistics: all five candidates score 0.
		if dest, _ := sel.chooseDestination(parts, infos, nil); dest != 0 {
			t.Fatalf("stripes=%d, no statistics: chose %d, want 0", stripes, dest)
		}
		sel.MarkDown(0)
		if dest, _ := sel.chooseDestination(parts, infos, nil); dest != 1 {
			t.Fatalf("stripes=%d, no statistics, site 0 down: chose %d, want 1", stripes, dest)
		}
		sel.MarkUp(0)

		// Each written partition always travels with its neighbour, from
		// clients on different stripes. Moving the set to site 2 or 3 splits
		// one pair (-1), anywhere else splits both (-2): 2 and 3 tie, 2 wins.
		now := time.Now()
		for client := 0; client < 8; client++ {
			sel.stats.RecordWrite(client, []uint64{10, 11}, now)
			sel.stats.RecordWrite(client+8, []uint64{20, 21}, now)
		}
		_, score := referenceScores(sel, parts, infos, nil)
		if score[2] != score[3] || score[2] <= score[0] {
			t.Fatalf("stripes=%d: reference scores %v do not tie sites 2 and 3 on top", stripes, score)
		}
		if dest, _ := sel.chooseDestination(parts, infos, nil); dest != 2 {
			t.Fatalf("stripes=%d: chose %d, want 2 (first of the tied sites 2 and 3)", stripes, dest)
		}
	}
}

// TestScoringConcurrentWithRecordWrite scores while other clients feed the
// tracker (run under -race): the reader copies rows out under the stripe
// locks and scores outside them.
func TestScoringConcurrentWithRecordWrite(t *testing.T) {
	sel, parts, infos := scoringFixture(t, 64, 4, 16)
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
				dest, err := sel.chooseDestination(parts, infos, cvv)
				if err != nil || dest < 0 || dest >= 4 {
					t.Errorf("chooseDestination = %d, %v", dest, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestChooseDestinationAllocations holds a warm decision over 256-pair rows
// to the session-vector clone plus slack: rows, per-site arrays and load
// snapshots all come from the pooled scratch.
func TestChooseDestinationAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	sel, parts, infos := scoringFixture(t, 256, 4, 16)
	cvv := vclock.New(4)
	decide := func() {
		if _, err := sel.chooseDestination(parts, infos, cvv); err != nil {
			t.Fatal(err)
		}
	}
	decide() // grow the scratch
	if allocs := testing.AllocsPerRun(100, decide); allocs > 4 {
		t.Fatalf("warm chooseDestination allocates %.0f times, want <= 4", allocs)
	}
}
