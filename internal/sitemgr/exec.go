package sitemgr

import (
	"time"
)

// Execution capacity model. The paper's data sites are 12-core machines
// whose saturation under update load is what bottlenecks the single-master
// architecture; this reproduction runs all sites in one process, so each
// Site owns a pool of execution slots and every piece of transactional work
// (stored procedures, 2PC participant work, refresh application) occupies a
// slot for its modelled CPU cost. A saturated site queues work exactly like
// a saturated server.
//
// Costs are charged as sleeps. Because OS sleep granularity (~50-100µs)
// would swamp microsecond-scale costs, each slot accrues a debt and sleeps
// only when the debt crosses a quantum — average rates stay correct while
// individual transactions see at most one quantum of jitter.

// CostModel prices transactional work.
type CostModel struct {
	// TxnBase is charged per stored-procedure execution.
	TxnBase time.Duration
	// PerRead, PerWrite and PerScanKey are charged per operation.
	PerRead    time.Duration
	PerWrite   time.Duration
	PerScanKey time.Duration
	// RefreshBase and PerRefreshWrite price refresh-transaction
	// application at replicas.
	RefreshBase     time.Duration
	PerRefreshWrite time.Duration
}

// DefaultCostModel approximates an OLTP stored-procedure engine at the
// simulation's time scale (~8x the paper's hardware; see
// transport.DefaultConfig): ~1ms of fixed per-transaction work plus tens of
// µs per row touched. With the default 4 execution slots a site saturates
// around 3k update transactions per second; scans of 200-1000 keys cost
// 3-11ms. Refresh application is ~6x cheaper than executing the full
// stored procedure, which is what lets a dynamically mastered replicated
// system out-scale a single master.
func DefaultCostModel() CostModel {
	return CostModel{
		TxnBase:         1000 * time.Microsecond,
		PerRead:         20 * time.Microsecond,
		PerWrite:        50 * time.Microsecond,
		PerScanKey:      10 * time.Microsecond,
		RefreshBase:     100 * time.Microsecond,
		PerRefreshWrite: 30 * time.Microsecond,
	}
}

// Zero reports whether the model charges nothing (unit tests).
func (c CostModel) Zero() bool { return c == CostModel{} }

// DefaultExecSlots is the default per-site execution parallelism.
const DefaultExecSlots = 4

// applySlots is the parallelism of a site's replication manager (refresh
// application runs on its own threads and does not queue behind stored
// procedures, as in the paper's integrated-but-concurrent design; its
// capacity still bounds how fast replicas absorb remote updates, which is
// what limits site-count scaling).
const applySlots = 2

// execQuantum is the debt threshold at which a slot actually sleeps; it
// sits above the host's sleep granularity so batching error stays ~10%.
const execQuantum = 2 * time.Millisecond

// slotToken carries a slot's accumulated unslept debt.
type slotToken struct {
	debt time.Duration
}

// execPool is a site's execution slots.
type execPool struct {
	slots chan *slotToken
}

func newExecPool(n int) *execPool {
	if n <= 0 {
		n = DefaultExecSlots
	}
	p := &execPool{slots: make(chan *slotToken, n)}
	for i := 0; i < n; i++ {
		p.slots <- &slotToken{}
	}
	return p
}

// do runs fn while holding a slot, then charges the cost fn returned.
func (p *execPool) do(fn func() time.Duration) {
	tok := <-p.slots
	cost := fn()
	tok.debt += cost
	if tok.debt >= execQuantum {
		time.Sleep(tok.debt)
		tok.debt = 0
	}
	p.slots <- tok
}

// Exec runs fn on one of the site's execution slots and charges the
// modelled CPU cost fn returns. When the site is saturated, callers queue.
func (s *Site) Exec(fn func() time.Duration) {
	s.pool.do(fn)
}

// Costs returns the site's cost model.
func (s *Site) Costs() CostModel { return s.cfg.Costs }
