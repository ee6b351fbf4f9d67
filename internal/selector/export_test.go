package selector

// MarkUp clears a site's failed flag on every shard.
func (g *Group) MarkUp(site int) {
	for i := 0; i < g.n; i++ {
		g.Shard(i).MarkUp(site)
	}
}

// MarkUp clears a site's failed flag (a recovered site rejoining).
func (s *Selector) MarkUp(site int) {
	if site >= 0 && site < s.m {
		s.downSites[site].Store(false)
	}
}

// Weights returns the strategy hyperparameters (uniform across shards).
func (g *Group) Weights() Weights { return g.Shard(0).Weights() }

// SetWeights replaces the strategy hyperparameters on every shard.
func (g *Group) SetWeights(w Weights) {
	for i := 0; i < g.n; i++ {
		g.Shard(i).SetWeights(w)
	}
}

// SetWeights replaces the strategy hyperparameters (tests
// swap them mid-run; the pointer swap is atomic against concurrent
// routing decisions).
func (s *Selector) SetWeights(w Weights) { s.weights.Store(&w) }

// SingleSited implements the single_sited term of Equations 6-7 for a pair
// (d1 in the write set, d2 correlated with d1) and candidate site S:
//
//	+1 if remastering the write set to S co-locates d1 and d2's masters,
//	-1 if it splits masters that are currently co-located,
//	 0 if co-location is unchanged.
//
// master gives the current master of a partition and inWriteSet reports
// whether d2 is itself being remastered with the write set. The one-pass
// scorer computes the term inline; the scoring tests hold it to this form.
func SingleSited(s int, d1, d2 uint64, master func(uint64) int, inWriteSet func(uint64) bool) float64 {
	before := master(d1) == master(d2)
	var after bool
	if inWriteSet(d2) {
		after = true // both move to S
	} else {
		after = master(d2) == s
	}
	switch {
	case after && !before:
		return 1
	case before && !after:
		return -1
	}
	return 0
}

// occurrencesOf returns the aggregate sample count containing partition p
// (the P(d2|p) denominator).
func (st *Stats) occurrencesOf(p uint64) float64 {
	return st.sum(p, func(ps *partStats) float64 { return ps.occ })
}
