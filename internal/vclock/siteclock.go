package vclock

import (
	"sync"
	"sync/atomic"
)

// SiteClock is an internally synchronized site version vector with waiters.
// Data sites use it as svv_i: local commits advance the site's own
// dimension, refresh application advances remote dimensions, and
// transactions block on WaitDominatesEq until session-freshness or grant
// preconditions hold.
//
// Dimensions only grow and are stored atomically (under mu), so a wait whose
// condition already holds — the usual case on the refresh path — sees that
// with atomic loads and never touches the mutex. Now is lock-free too: every
// store is bracketed by two increments of gen, so a reader that sees the
// same even gen before and after its loads holds a vector that existed.
type SiteClock struct {
	mu          sync.Mutex
	cond        *sync.Cond
	gen         atomic.Uint64 // odd while a store under mu is in progress
	vv          Vector
	interrupted bool
}

// nowSpins bounds Now's lock-free attempts before it falls back to the
// mutex, so a reader never spins on a writer that was descheduled mid-store.
const nowSpins = 64

// NewSiteClock returns a clock for an m-site system.
func NewSiteClock(m int) *SiteClock {
	c := &SiteClock{vv: New(m)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Now returns a snapshot copy of the current vector. Dimensions are loaded
// one by one, so without the gen check a reader could pair an old dimension
// with a newer one whose entries depend on what the old one misses. Readers
// take no lock: a transaction's begin and every read route call Now, and
// parking them on a mutex the refresh appliers also take puts an applier
// batch into the reader's latency.
func (c *SiteClock) Now() Vector {
	out := make(Vector, len(c.vv))
	for range nowSpins {
		g := c.gen.Load()
		if g&1 != 0 {
			continue
		}
		for k := range c.vv {
			out[k] = atomic.LoadUint64(&c.vv[k])
		}
		if c.gen.Load() == g {
			return out
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	copy(out, c.vv)
	return out
}

// store sets dimension k under mu, bracketed for Now's lock-free readers.
func (c *SiteClock) store(k int, seq uint64) {
	c.gen.Add(1)
	atomic.StoreUint64(&c.vv[k], seq)
	c.gen.Add(1)
}

// Advance sets dimension k to seq if seq is greater than the current value
// and wakes waiters. Refresh application uses it to publish remote commits.
func (c *SiteClock) Advance(k int, seq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k < len(c.vv) && c.vv[k] < seq {
		c.store(k, seq)
		c.cond.Broadcast()
	}
}

// Get returns dimension k of the current vector, without the lock.
func (c *SiteClock) Get(k int) uint64 {
	if k >= len(c.vv) {
		return 0
	}
	return atomic.LoadUint64(&c.vv[k])
}

// WaitDominatesEq blocks until the clock dominates min elementwise. It
// implements both the SSSI freshness rule (svv >= cvv) and the grant rule
// (destination has applied the releasing site's updates to the release
// point). Callers that need the vector afterwards read Now.
func (c *SiteClock) WaitDominatesEq(min Vector) {
	if c.reachedAll(min) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.interrupted && !c.vv.DominatesEq(min) {
		c.cond.Wait()
	}
}

// WaitDimAtLeast blocks until dimension k reaches at least seq. The refresh
// applier uses it to wait for the predecessor transaction from the same
// origin.
func (c *SiteClock) WaitDimAtLeast(k int, seq uint64) {
	if c.reached(k, seq) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.interrupted && k < len(c.vv) && c.vv[k] < seq {
		c.cond.Wait()
	}
}

// reached reports, without the lock, whether dimension k is already at seq
// (dimensions past the clock's length count as zero, as in DominatesEq).
func (c *SiteClock) reached(k int, seq uint64) bool {
	if k >= len(c.vv) {
		return seq == 0
	}
	return atomic.LoadUint64(&c.vv[k]) >= seq
}

func (c *SiteClock) reachedAll(min Vector) bool {
	for k, want := range min {
		if !c.reached(k, want) {
			return false
		}
	}
	return true
}

// Interrupt wakes every waiter and makes all future waits return
// immediately. Sites call it on shutdown: an
// applier blocked on a causal dependency whose producer applier has already
// exited would otherwise deadlock Stop. Callers must re-check their stop
// condition after a wait returns.
func (c *SiteClock) Interrupt() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.interrupted = true
	c.cond.Broadcast()
}
