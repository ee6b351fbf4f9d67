package selector

import (
	"sync/atomic"

	"dynamast/internal/transport"
)

// Replica is a selector standby: a mirror of its shard leader's
// partition -> master map, install epoch included. Under the HA tier
// (lease.go) the leader's delta feed keeps the mirror continuously fresh,
// and a promotion reconciles it against the sites' WAL fold to become the
// new leader's map. Standbys route nothing: sessions route through the
// Front, whose placement cache consumes the same feed.
type Replica struct {
	placementMap
	// feedSeq is the last delta-feed sequence number ingested; the
	// leader's sequence minus this is the standby's lag.
	feedSeq atomic.Uint64
}

// FeedSeq returns the last delta-feed sequence number this standby
// ingested.
func (r *Replica) FeedSeq() uint64 { return r.feedSeq.Load() }

// Replicated is one router shard's selector tier: the leader selector and
// its standbys. Under HA the leader pointer is swapped on promotion; Master
// keeps naming the initial leader.
type Replicated struct {
	Master   *Selector
	replicas []*Replica
	net      *transport.Network
	leader   atomic.Pointer[Selector]
	ha       *HA

	// feedSink is an extra consumer of the leader's mastership delta feed
	// (the front's placement cache). It survives leader swaps: under HA the
	// broadcast fan-out forwards each delta here, and without HA the Group
	// wires the master's feed to deliverDelta directly.
	feedSink atomic.Pointer[func(parts []uint64, site int, epoch uint64)]
}

// setFeedSink installs the extra delta-feed consumer.
func (r *Replicated) setFeedSink(f func(parts []uint64, site int, epoch uint64)) {
	r.feedSink.Store(&f)
}

// deliverDelta hands one committed mastership flip to the feed sink, if any.
func (r *Replicated) deliverDelta(parts []uint64, site int, epoch uint64) {
	if f := r.feedSink.Load(); f != nil {
		(*f)(parts, site, epoch)
	}
}

// NewReplicated builds a tier of master plus n standbys.
func NewReplicated(master *Selector, n int, net *transport.Network) *Replicated {
	r := &Replicated{Master: master, net: net}
	r.leader.Store(master)
	for i := 0; i < n; i++ {
		r.replicas = append(r.replicas, &Replica{})
	}
	return r
}

// Replicas returns the standby tier.
func (r *Replicated) Replicas() []*Replica { return r.replicas }

// Leader returns the selector currently holding leadership (the master
// outside HA deployments).
func (r *Replicated) Leader() *Selector { return r.leader.Load() }

// HA returns the high-availability state machine, nil unless EnableHA ran.
func (r *Replicated) HA() *HA { return r.ha }
