package selector

import (
	"sync/atomic"

	"dynamast/internal/transport"
)

// Replicated is one router shard's selector tier: the leader selector and
// a count of standbys. A standby holds no state: under HA (lease.go) it
// only contends for the lease, and its promotion rebuilds the map from the
// last checkpoint and the sites' logs. Under HA the leader pointer is
// swapped on promotion; Master keeps naming the initial leader.
type Replicated struct {
	Master   *Selector
	standbys int
	net      *transport.Network
	leader   atomic.Pointer[Selector]
	ha       *HA

	// feedSink consumes the leader's mastership delta feed (the front's
	// placement cache). It survives leader swaps: every leader's feed is
	// wired to deliverDelta.
	feedSink atomic.Pointer[func(parts []uint64, site int, epoch uint64)]
}

// setFeedSink installs the delta-feed consumer and wires the current
// leader's feed to it.
func (r *Replicated) setFeedSink(f func(parts []uint64, site int, epoch uint64)) {
	r.feedSink.Store(&f)
	r.Leader().SetDeltaFeed(r.deliverDelta)
}

// deliverDelta hands one committed mastership flip to the feed sink, if any.
func (r *Replicated) deliverDelta(parts []uint64, site int, epoch uint64) {
	if f := r.feedSink.Load(); f != nil {
		(*f)(parts, site, epoch)
	}
}

// NewReplicated builds a tier of master plus n standbys.
func NewReplicated(master *Selector, n int, net *transport.Network) *Replicated {
	r := &Replicated{Master: master, standbys: n, net: net}
	r.leader.Store(master)
	return r
}

// Standbys returns the number of standby selectors.
func (r *Replicated) Standbys() int { return r.standbys }

// Leader returns the selector currently holding leadership (the master
// outside HA deployments).
func (r *Replicated) Leader() *Selector { return r.leader.Load() }

// HA returns the high-availability state machine, nil unless EnableHA ran.
func (r *Replicated) HA() *HA { return r.ha }
