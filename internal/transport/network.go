// Package transport models the cluster network that connects DynaMast's
// clients, site selector and data sites, and provides a real TCP RPC layer
// for multi-process deployments.
//
// The paper evaluates on a 10 Gbit/s cluster of 8–16 machines using Apache
// Thrift RPC. This reproduction runs all sites in one process; the Network
// type stands in for the wire by charging every logical message a
// configurable one-way latency plus a bandwidth-proportional transfer time,
// and by accounting messages and bytes per traffic category. The headline
// comparisons in the paper (2PC's extra round trips and blocking vs.
// DynaMast's metadata-only remastering, LEAP's data shipping) are functions
// of message counts, payload sizes and blocking windows — precisely what
// this simulated network reproduces.
package transport

import (
	"fmt"
	"sync/atomic"
	"time"

	"dynamast/internal/obs"
)

// Category classifies cluster traffic so experiments can break down network
// cost by protocol component (the paper's §VI-B7 / Appendix D analysis).
type Category int

const (
	// CatRoute is client <-> site selector traffic (begin_transaction).
	CatRoute Category = iota
	// CatTxn is client <-> data site traffic (operations, commit/abort).
	CatTxn
	// CatRemaster is selector <-> site release/grant traffic.
	CatRemaster
	// CatReplication is update propagation (refresh transactions).
	CatReplication
	// Cat2PC is distributed commit traffic (prepare/commit/abort votes).
	Cat2PC
	// CatShipping is LEAP-style data localization transfers.
	CatShipping
	// CatControl is cluster control-plane traffic (heartbeats, failover).
	CatControl
	// CatLease is selector high-availability traffic: lease
	// acquire/renew against the coordination service, standby metadata
	// deltas, and promotion-time site fencing.
	CatLease

	numCategories
)

// String names the category.
func (c Category) String() string {
	switch c {
	case CatRoute:
		return "route"
	case CatTxn:
		return "txn"
	case CatRemaster:
		return "remaster"
	case CatReplication:
		return "replication"
	case Cat2PC:
		return "2pc"
	case CatShipping:
		return "shipping"
	case CatControl:
		return "control"
	case CatLease:
		return "lease"
	}
	return fmt.Sprintf("category(%d)", int(c))
}

// Categories lists all traffic categories in stable order.
func Categories() []Category {
	out := make([]Category, numCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

// Config describes the simulated wire.
type Config struct {
	// OneWay is the one-way message latency (propagation + RPC stack).
	OneWay time.Duration
	// BytesPerSecond is the link bandwidth; 0 disables the transfer-time
	// term. The paper's testbed is 10 Gbit/s.
	BytesPerSecond float64
}

// DefaultConfig is the simulated cluster wire. The paper's testbed is a
// 10 Gbit/s LAN with sub-millisecond RPCs; this container's sleep
// granularity is ~1.2ms, so the simulation runs at a time scale ~8x the
// paper's — 2ms one-way RPC latency and a proportionally scaled 1.25 Gbit/s
// link — which keeps every latency *ratio* (round trips per protocol,
// transfer-time share) intact while staying well above timer resolution.
func DefaultConfig() Config {
	return Config{OneWay: 2 * time.Millisecond, BytesPerSecond: 1.25e9 / 8}
}

// Instant returns a zero-latency configuration (unit tests).
func Instant() Config { return Config{} }

// counter is a message/byte pair updated atomically.
type counter struct {
	msgs  atomic.Uint64
	bytes atomic.Uint64
}

// Network simulates the cluster wire. All methods are safe for concurrent
// use. A nil *Network is valid and free: no latency, no accounting — used
// for co-located components (the paper integrates the site manager,
// database and replication manager into one component precisely to avoid
// internal hops).
type Network struct {
	cfg      Config
	counters [numCategories]counter
	inj      atomic.Pointer[Injector]
}

// NewNetwork returns a simulated network with the given configuration.
func NewNetwork(cfg Config) *Network {
	return &Network{cfg: cfg}
}

// Config returns the network's configuration.
func (n *Network) Config() Config {
	if n == nil {
		return Config{}
	}
	return n.cfg
}

// transferTime returns the simulated time on the wire for size bytes.
func (n *Network) transferTime(size int) time.Duration {
	if n.cfg.BytesPerSecond <= 0 || size <= 0 {
		return 0
	}
	return time.Duration(float64(size) / n.cfg.BytesPerSecond * float64(time.Second))
}

// SetInjector installs (or, with nil, removes) a fault injector on the
// wire. Fault-free operation costs one atomic pointer load per message.
func (n *Network) SetInjector(inj *Injector) {
	if n == nil {
		return
	}
	n.inj.Store(inj)
}

// Injector returns the installed fault injector (nil when fault-free).
func (n *Network) Injector() *Injector {
	if n == nil {
		return nil
	}
	return n.inj.Load()
}

// Send charges one one-way message of size bytes in category cat, blocking
// the caller for the simulated network time. Injected delay faults apply;
// drop/error faults do not (legacy callers cannot observe them) — fallible
// protocol paths use SendTo.
func (n *Network) Send(cat Category, size int) {
	if n == nil {
		return
	}
	c := &n.counters[cat]
	c.msgs.Add(1)
	c.bytes.Add(uint64(size))
	d := n.cfg.OneWay + n.transferTime(size)
	if inj := n.inj.Load(); inj != nil {
		d += inj.DecideDelay(cat)
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// SendTo charges one one-way message from endpoint `from` to endpoint `to`
// (data sites use their index, the selector/control plane SelectorNode) and
// returns any injected fault: a dropped or errored message surfaces as an
// error after the wire time already spent, exactly as a timed-out RPC
// would. With no injector installed it behaves like Send and returns nil.
func (n *Network) SendTo(cat Category, from, to, size int) error {
	if n == nil {
		return nil
	}
	c := &n.counters[cat]
	c.msgs.Add(1)
	c.bytes.Add(uint64(size))
	d := n.cfg.OneWay + n.transferTime(size)
	var ferr error
	if inj := n.inj.Load(); inj != nil {
		var extra time.Duration
		ferr, extra = inj.Decide(cat, from, to)
		d += extra
	}
	if d > 0 {
		time.Sleep(d)
	}
	return ferr
}

// RoundTrip charges a request of reqSize bytes and a response of respSize
// bytes (two one-way messages).
func (n *Network) RoundTrip(cat Category, reqSize, respSize int) {
	n.Send(cat, reqSize)
	n.Send(cat, respSize)
}

// Account records a message without sleeping; used by asynchronous paths
// (update propagation) where the pipeline delay is modelled elsewhere.
func (n *Network) Account(cat Category, size int) {
	if n == nil {
		return
	}
	c := &n.counters[cat]
	c.msgs.Add(1)
	c.bytes.Add(uint64(size))
}

// CategoryStats is a snapshot of one category's counters.
type CategoryStats struct {
	Category Category
	Messages uint64
	Bytes    uint64
}

// Stats returns a snapshot of all categories.
func (n *Network) Stats() []CategoryStats {
	out := make([]CategoryStats, numCategories)
	for i := range out {
		out[i].Category = Category(i)
		if n != nil {
			out[i].Messages = n.counters[i].msgs.Load()
			out[i].Bytes = n.counters[i].bytes.Load()
		}
	}
	return out
}

// Instrument re-exports the per-category message/byte counters through an
// obs registry (read at snapshot time, so Send/Account stay untouched).
func (n *Network) Instrument(reg *obs.Registry) {
	if n == nil || reg == nil {
		return
	}
	reg.Help("dynamast_net_messages_total", "Simulated-wire messages by traffic category.")
	reg.Help("dynamast_net_bytes_total", "Simulated-wire bytes by traffic category.")
	reg.Help("dynamast_rpc_retries_total", "RPC attempts retried after transient failures (process-wide).")
	reg.Func("dynamast_rpc_retries_total", obs.KindCounter,
		func() float64 { return float64(RPCRetries()) })
	for _, cat := range Categories() {
		c := &n.counters[cat]
		lbl := obs.L("category", cat.String())
		reg.Func("dynamast_net_messages_total", obs.KindCounter,
			func() float64 { return float64(c.msgs.Load()) }, lbl)
		reg.Func("dynamast_net_bytes_total", obs.KindCounter,
			func() float64 { return float64(c.bytes.Load()) }, lbl)
	}
}
