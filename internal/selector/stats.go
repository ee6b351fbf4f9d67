// Package selector implements DynaMast's site selector: transaction routing,
// the remastering protocol (Algorithm 1), and the adaptive remastering
// strategies of §IV built on learned workload statistics.
package selector

import (
	"maps"
	"slices"
	"sync"
	"time"
)

// Stats learns workload access patterns (§V-B): per-partition write access
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
type Stats struct {
	stripes []statsStripe
	// decayThreshold is the configured (per-stripe) decay trigger; the
	// selector's materialized-load decay reuses it.
	decayThreshold float64
}

// statsStripe is one client-hash stripe: a complete single-mutex tracker.
// Every partition the stripe has seen owns one slot in parts, found through
// index; slots are never freed, so a slot number stays valid for as long as
// a history sample or a client's recent write set holds it.
type statsStripe struct {
	mu sync.Mutex

	index map[uint64]int32
	parts []partStats

	// totalAccess and totalReads sum the slots' access and read counts;
	// crossing decayThreshold halves every slot's counts so frequencies
	// follow the recent workload.
	totalAccess    float64
	totalReads     float64
	decayThreshold float64

	history  []sample // ring buffer of samples
	histNext int
	histLen  int

	// Per-client recent write sets for inter-transaction correlation. Once
	// per history wrap, clients idle longer than interWindow are swept out.
	recent      map[int]recentTxn
	interWindow time.Duration

	sampleEvery int // record 1 of every sampleEvery write sets
	sampleTick  int

	slots []int32 // RecordWrite's scratch: the write set's slots

	_ [40]byte // pad stripes apart (mutex + hot fields per cache line)
}

// partStats is one partition's slot. The co-access rows are sorted by D2
// and hold only positive counts.
type partStats struct {
	id     uint64
	access float64  // recent write count, for f_balance (every routed write)
	reads  float64  // recent read count, the placement policy's demand signal
	occ    float64  // live samples containing id (the P(d2|id) denominator)
	intra  []CoPair // D2 written in one transaction with id
	inter  []CoPair // D2 written within Δt after id by the same client
}

type sample struct {
	slots      []int32
	interPairs [][2]int32 // inter-txn (d1, d2) slot pairs this sample contributed
}

// recentTxn is a client's last sampled write set as slots, held by value
// (small sets inline) so it never aliases a history sample's arrays — which
// lets RecordWrite recycle an expired sample's backing arrays for the sample
// replacing it, keeping the hot path allocation-free once the ring has
// filled.
type recentTxn struct {
	at     time.Time
	n      int
	inline [8]int32
	spill  []int32 // write sets larger than inline
}

func (r *recentTxn) view() []int32 {
	if r.spill != nil {
		return r.spill
	}
	return r.inline[:r.n]
}

func setRecent(m map[int]recentTxn, client int, slots []int32, at time.Time) {
	r := recentTxn{at: at, n: len(slots)}
	if len(slots) <= len(r.inline) {
		copy(r.inline[:], slots)
	} else {
		r.spill = append([]int32(nil), slots...)
	}
	m[client] = r
}

// StatsConfig tunes the statistics tracker.
type StatsConfig struct {
	// HistorySize bounds each stripe's sample queue; expiring samples
	// decrement their counts (default 4096).
	HistorySize int
	// SampleEvery records one in every SampleEvery write sets per stripe
	// (default 1: record everything; the paper samples adaptively to bound
	// overhead).
	SampleEvery int
	// InterWindow is Δt for inter-transaction correlations (default 50ms,
	// scaled to this reproduction's transaction rates).
	InterWindow time.Duration
	// DecayThreshold halves a stripe's access counts when its total
	// exceeds it (default 100k accesses).
	DecayThreshold float64
	// Stripes is the number of client-hash stripes (rounded up to a power
	// of two; default 16). 1 recovers the single-lock tracker.
	Stripes int
}

// defaultStatsStripes is the default client-hash stripe count.
const defaultStatsStripes = 16

// NewStats returns a tracker with the given configuration.
func NewStats(cfg StatsConfig) *Stats {
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
	st := &Stats{
		stripes:        make([]statsStripe, n),
		decayThreshold: cfg.DecayThreshold,
	}
	for i := range st.stripes {
		sp := &st.stripes[i]
		sp.index = make(map[uint64]int32)
		sp.decayThreshold = cfg.DecayThreshold
		sp.history = make([]sample, cfg.HistorySize)
		sp.recent = make(map[int]recentTxn)
		sp.interWindow = cfg.InterWindow
		sp.sampleEvery = cfg.SampleEvery
	}
	return st
}

// stripe returns the stripe client hashes to. Client ids are small dense
// integers, so a Fibonacci multiply-shift spreads consecutive ids across
// stripes.
func (st *Stats) stripe(client int) *statsStripe {
	return &st.stripes[st.stripeIndex(client)]
}

func (st *Stats) stripeIndex(client int) int {
	return int((uint64(client) * 0x9E3779B97F4A7C15) >> 32 & uint64(len(st.stripes)-1))
}

// slot returns p's slot, adding one on first sight.
func (sp *statsStripe) slot(p uint64) int32 {
	if s, ok := sp.index[p]; ok {
		return s
	}
	s := int32(len(sp.parts))
	sp.index[p] = s
	sp.parts = append(sp.parts, partStats{id: p})
	return s
}

// RecordWrite ingests one routed write transaction's partition set for
// client. Access counts are always updated; co-access statistics are
// updated for sampled transactions. Only the client's stripe is locked, and
// each partition is looked up once.
func (st *Stats) RecordWrite(client int, parts []uint64, now time.Time) {
	sp := st.stripe(client)
	sp.mu.Lock()
	defer sp.mu.Unlock()

	slots := sp.slots[:0]
	for _, p := range parts {
		s := sp.slot(p)
		sp.parts[s].access++
		slots = append(slots, s)
	}
	sp.slots = slots
	sp.totalAccess += float64(len(parts))
	if sp.totalAccess > sp.decayThreshold {
		for i := range sp.parts {
			sp.parts[i].access /= 2
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
	sm := sample{slots: append(old.slots[:0], slots...), interPairs: old.interPairs[:0]}

	// Intra-transaction pairs.
	for i, s1 := range slots {
		ps := &sp.parts[s1]
		ps.occ++
		for j, d2 := range parts {
			if i != j {
				ps.intra = addPair(ps.intra, d2, 1)
			}
		}
	}

	// Inter-transaction pairs: partitions of this client's previous write
	// set within Δt correlate with this write set.
	if prev, ok := sp.recent[client]; ok && now.Sub(prev.at) <= sp.interWindow {
		for _, s1 := range prev.view() {
			ps := &sp.parts[s1]
			for j, s2 := range slots {
				if s1 == s2 {
					continue
				}
				ps.inter = addPair(ps.inter, parts[j], 1)
				sm.interPairs = append(sm.interPairs, [2]int32{s1, s2})
			}
		}
	}
	setRecent(sp.recent, client, slots, now)

	sp.history[sp.histNext] = sm
	sp.histNext = (sp.histNext + 1) % len(sp.history)
	if sp.histNext == 0 {
		// A client idle for longer than Δt adds no inter pairs on its next
		// write, so dropping it changes no count and bounds the map by the
		// clients active in the window.
		maps.DeleteFunc(sp.recent, func(_ int, r recentTxn) bool { return now.Sub(r.at) > sp.interWindow })
	}
}

// RecordRead ingests one routed read transaction's partition set for client
// (partial-replication read routing feeds it). Only read access frequencies
// are tracked — reads contribute nothing to the remastering co-access model.
// Only the client's stripe is locked.
func (st *Stats) RecordRead(client int, parts []uint64) {
	sp := st.stripe(client)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for _, p := range parts {
		sp.parts[sp.slot(p)].reads++
	}
	sp.totalReads += float64(len(parts))
	if sp.totalReads > sp.decayThreshold {
		for i := range sp.parts {
			sp.parts[i].reads /= 2
		}
		sp.totalReads /= 2
	}
}

// expireLocked reverses an old sample's contributions.
func (sp *statsStripe) expireLocked(old sample) {
	for i, s1 := range old.slots {
		ps := &sp.parts[s1]
		if ps.occ > 0 {
			ps.occ--
		}
		for j, s2 := range old.slots {
			if i != j {
				ps.intra = addPair(ps.intra, sp.parts[s2].id, -1)
			}
		}
	}
	for _, pr := range old.interPairs {
		ps := &sp.parts[pr[0]]
		ps.inter = addPair(ps.inter, sp.parts[pr[1]].id, -1)
	}
}

// addPair adds delta to d2's count in row (sorted by D2, positive counts
// only) with one binary search, inserting or removing the entry in place.
// The search is written out: slices.BinarySearchFunc's comparator calls make
// RecordWrite about a quarter slower.
func addPair(row []CoPair, d2 uint64, delta float64) []CoPair {
	lo, hi := 0, len(row)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if row[m].D2 < d2 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	switch {
	case lo == len(row) || row[lo].D2 != d2:
		if delta > 0 {
			row = slices.Insert(row, lo, CoPair{D2: d2, Count: delta})
		}
	case row[lo].Count+delta > 0:
		row[lo].Count += delta
	default:
		row = slices.Delete(row, lo, lo+1)
	}
	return row
}

// sum adds f of partition p's slot over every stripe that has seen p.
func (st *Stats) sum(p uint64, f func(*partStats) float64) float64 {
	var w float64
	for i := range st.stripes {
		sp := &st.stripes[i]
		sp.mu.Lock()
		if s, ok := sp.index[p]; ok {
			w += f(&sp.parts[s])
		}
		sp.mu.Unlock()
	}
	return w
}

// AccessWeight returns partition p's recent write access count, aggregated
// across stripes.
func (st *Stats) AccessWeight(p uint64) float64 {
	return st.sum(p, func(ps *partStats) float64 { return ps.access })
}

// ReadWeight returns partition p's recent read access count, aggregated
// across stripes.
func (st *Stats) ReadWeight(p uint64) float64 {
	return st.sum(p, func(ps *partStats) float64 { return ps.reads })
}

// CoPair is one raw co-access row entry from one stripe: partition D2 was
// written Count times with (intra) or within Δt after (inter) the row's d1 in
// that stripe's samples. The same D2 may appear once per stripe.
type CoPair struct {
	D2    uint64
	Count float64
}

// CoAccess is the tracker's one co-access reader. For source partition d1 it
// appends every non-empty stripe's raw (d2, count) row entries to buf, stripe
// by stripe and in ascending D2 within a stripe, and returns the extended
// slice together with n, the number of samples containing d1 summed over all
// stripes. P(d2|d1) (intra) or P(d2|d1; T<=Δt) (inter) is the sum of d2's
// counts divided by n — the unstriped tracker's probability over the same
// samples — and because every consumer is linear in the counts, callers
// weight each entry by Count/n without merging stripes first. When n is 0
// (d1 in no live sample) nothing is appended. The order is a function of the
// recorded stream alone, so sums over the entries are reproducible.
//
// Entries are copied out under each stripe's lock and consumed by the caller
// with no stripe lock held, so the caller may call back into Stats. Passing a
// reused buf[:0] keeps the reader allocation-free once buf has grown to the
// row size.
func (st *Stats) CoAccess(d1 uint64, intra bool, buf []CoPair) ([]CoPair, float64) {
	start := len(buf)
	var n float64
	for i := range st.stripes {
		sp := &st.stripes[i]
		sp.mu.Lock()
		if s, ok := sp.index[d1]; ok {
			ps := &sp.parts[s]
			n += ps.occ
			if intra {
				buf = append(buf, ps.intra...)
			} else {
				buf = append(buf, ps.inter...)
			}
		}
		sp.mu.Unlock()
	}
	if n == 0 {
		// Inter rows can outlive d1's own (older) samples.
		return buf[:start], 0
	}
	return buf, n
}
