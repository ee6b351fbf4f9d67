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
