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
// with atomic loads and never touches the mutex.
type SiteClock struct {
	mu          sync.Mutex
	cond        *sync.Cond
	site        int
	vv          Vector
	interrupted bool
}

// NewSiteClock returns a clock for site index site in an m-site system.
func NewSiteClock(site, m int) *SiteClock {
	c := &SiteClock{site: site, vv: New(m)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Site returns the owning site's index.
func (c *SiteClock) Site() int { return c.site }

// Now returns a snapshot copy of the current vector.
func (c *SiteClock) Now() Vector {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vv.Clone()
}

// TickLocal atomically increments the site's own dimension and returns the
// resulting vector; the returned vector is the committing transaction's
// commit timestamp basis (tvv[i] = returned[i]).
func (c *SiteClock) TickLocal() Vector {
	c.mu.Lock()
	defer c.mu.Unlock()
	atomic.AddUint64(&c.vv[c.site], 1)
	out := c.vv.Clone()
	c.cond.Broadcast()
	return out
}

// Advance sets dimension k to seq if seq is greater than the current value
// and wakes waiters. Refresh application uses it to publish remote commits.
func (c *SiteClock) Advance(k int, seq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k < len(c.vv) && c.vv[k] < seq {
		atomic.StoreUint64(&c.vv[k], seq)
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
