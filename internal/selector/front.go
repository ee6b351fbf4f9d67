package selector

import (
	"sync/atomic"
	"time"

	"dynamast/internal/obs"
	"dynamast/internal/storage"
	"dynamast/internal/vclock"
)

// Router is the routing interface the harness pins; *Front implements it.
type Router interface {
	RouteWrite(client int, writeSet []storage.RowRef, cvv vclock.Vector) (Route, error)
	RouteRead(client int, cvv vclock.Vector) Route
}

// Front is the one session-facing router (the distributed site selector of
// Appendix I), the same for every control-plane topology. On a control plane
// of more than one node (several shards, or standbys behind each leader) it
// is local: a session routes reads and single-sited writes itself, with zero
// router RPCs, from the owning shard leaders' lock-free master hints and
// live replica sets, and only writes that need remastering reach a leader.
// A hint flips with the map the routers use, so the one staleness a local
// write can meet is a remaster chain between its site-level moves and its
// metadata flip: the former master rejects the transaction
// (ErrNotMaster, ErrReleasing or ErrStaleEpoch), and the session's retry
// routes through Write, which waits out the chain on the partition's lock.
// A one-node control plane asks its router on every begin_transaction (§IV).
type Front struct {
	g     *Group
	local bool

	readRoutes  atomic.Uint64 // reads routed locally
	writeRoutes atomic.Uint64 // writes routed locally
	staleWrites atomic.Uint64 // write retries on a local front
	misses      atomic.Uint64 // local write routes that fell back to a router
}

// LocalWrite routes a first-attempt write from the hints when every
// partition of its write set has been seen and is mastered at one live site;
// the decision is recorded like any routed write. It creates no partition
// state and takes no partition lock. ok=false (a miss, or a one-node control
// plane) means the caller must route through Write.
func (f *Front) LocalWrite(client int, writeSet []storage.RowRef) (Route, bool) {
	if !f.local {
		return Route{}, false
	}
	start := time.Now()
	parts := writeParts(f.g.partitioner, writeSet)
	if len(parts) == 0 {
		f.g.ctr[0].writeTxns.Add(1)
		return Route{Site: 0}, true
	}
	site := -1
	for _, p := range parts {
		m, ok := f.g.ShardFor(p).peekMaster(p)
		if !ok || (site >= 0 && m != site) {
			f.misses.Add(1)
			return Route{}, false
		}
		site = m
	}
	if f.g.SiteDown(site) {
		f.misses.Add(1)
		return Route{}, false
	}
	f.writeRoutes.Add(1)
	f.g.finishWrite(client, parts, site, start)
	return Route{Site: site}, true
}

// Write routes a write through the group, remastering if its partitions are
// mastered at different sites. attempt is the session's attempt number: a
// retry on a local front counts as a stale write. A sampled sc makes every
// remaster chain record its release and grant spans as children of sc.Span.
func (f *Front) Write(client int, writeSet []storage.RowRef, cvv vclock.Vector, sc obs.SpanContext, attempt int) (Route, error) {
	if attempt > 0 && f.local {
		f.staleWrites.Add(1)
	}
	return f.g.routeWrite(client, writeSet, cvv, sc)
}

// RouteWrite implements Router: Write without a trace.
func (f *Front) RouteWrite(client int, writeSet []storage.RowRef, cvv vclock.Vector) (Route, error) {
	return f.g.routeWrite(client, writeSet, cvv, obs.SpanContext{})
}

// Local reports whether sessions route first attempts themselves: the
// control plane has more than one node.
func (f *Front) Local() bool { return f.local }

// Read routes a read-only transaction: to a fresh site hosting every hinted
// partition (partial replication), or to any fresh site. attempt is the
// session's attempt number: a first attempt on a local front counts as a
// local route.
func (f *Front) Read(client int, cvv vclock.Vector, parts []uint64, attempt int) Route {
	if attempt == 0 && f.local {
		f.readRoutes.Add(1)
	}
	return f.g.routeRead(client, cvv, parts)
}

// RouteRead implements Router: Read without partition hints.
func (f *Front) RouteRead(client int, cvv vclock.Vector) Route {
	return f.g.routeRead(client, cvv, nil)
}

// instrument registers the local-routing series; a one-node control plane
// has none.
func (f *Front) instrument(reg *obs.Registry) {
	if reg == nil || !f.local {
		return
	}
	reg.Help("dynamast_selector_cache_routes_total", "Session routes served locally from the shard leaders' placement, with zero router RPCs.")
	reg.Help("dynamast_selector_cache_misses_total", "Local write routes that fell back to a router shard.")
	reg.Help("dynamast_selector_cache_stale_writes_total", "Write retries on a local front (a stale route bounce or a transient fault).")
	reg.Func("dynamast_selector_cache_routes_total", obs.KindCounter, func() float64 {
		return float64(f.readRoutes.Load() + f.writeRoutes.Load())
	}, obs.L("type", "all"))
	reg.Func("dynamast_selector_cache_routes_total", obs.KindCounter, func() float64 {
		return float64(f.readRoutes.Load())
	}, obs.L("type", "read"))
	reg.Func("dynamast_selector_cache_routes_total", obs.KindCounter, func() float64 {
		return float64(f.writeRoutes.Load())
	}, obs.L("type", "write"))
	reg.Func("dynamast_selector_cache_misses_total", obs.KindCounter, func() float64 {
		return float64(f.misses.Load())
	})
	reg.Func("dynamast_selector_cache_stale_writes_total", obs.KindCounter, func() float64 {
		return float64(f.staleWrites.Load())
	})
}
