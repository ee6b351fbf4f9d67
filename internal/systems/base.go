package systems

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"dynamast/internal/sitemgr"
	"dynamast/internal/storage"
	"dynamast/internal/transport"
	"dynamast/internal/vclock"
	"dynamast/internal/wal"
)

// BaseConfig describes the substrate shared by the four baseline systems.
// Every baseline runs on the same data sites, storage engine, MVCC scheme
// and isolation level as DynaMast (§VI-A1).
type BaseConfig struct {
	// Sites is the number of data sites.
	Sites int
	// Partitioner maps rows to partitions; required.
	Partitioner sitemgr.Partitioner
	// Placement statically assigns partitions to sites (range partitioning
	// for YCSB, warehouse partitioning for TPC-C — the oracle placements
	// Schism confirmed optimal). nil assigns everything to site 0.
	Placement func(part uint64) int
	// ReplicatedTables lists static read-only tables that partitioned
	// systems replicate to every site (e.g. TPC-C's item table).
	ReplicatedTables map[string]bool
	// Network configures the simulated wire.
	Network transport.Config
	// ExecSlots and Costs configure the sites' execution capacity model.
	ExecSlots int
	Costs     sitemgr.CostModel
	// MaxVersions caps record version chains.
	MaxVersions int
	// Seed drives read-routing randomization.
	Seed int64
}

// base is the shared implementation: a broker, m data sites, placement
// metadata and counters.
type base struct {
	cfg        BaseConfig
	net        *transport.Network
	broker     *wal.Broker
	sites      []*sitemgr.Site
	replicated bool

	rngMu sync.Mutex
	rng   *rand.Rand

	remasters   atomic.Uint64
	distributed atomic.Uint64
}

// newBase builds the shared substrate. replicate controls whether sites
// maintain lazy replicas (multi-master, single-master) or not
// (partition-store, LEAP); trackRows enables the per-partition row index
// that data shipping needs.
func newBase(cfg BaseConfig, replicate, trackRows bool) (*base, error) {
	if cfg.Sites <= 0 {
		return nil, fmt.Errorf("systems: Sites must be positive")
	}
	if cfg.Partitioner == nil {
		return nil, fmt.Errorf("systems: config requires a Partitioner")
	}
	if cfg.Placement == nil {
		cfg.Placement = func(uint64) int { return 0 }
	}
	b := &base{
		cfg:        cfg,
		net:        transport.NewNetwork(cfg.Network),
		broker:     wal.NewBroker(cfg.Sites),
		replicated: replicate,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
	}
	b.sites = make([]*sitemgr.Site, cfg.Sites)
	for i := 0; i < cfg.Sites; i++ {
		s, err := sitemgr.New(sitemgr.Config{
			SiteID:             i,
			Sites:              cfg.Sites,
			Net:                b.net,
			Broker:             b.broker,
			MaxVersions:        cfg.MaxVersions,
			Partitioner:        cfg.Partitioner,
			Replicate:          replicate,
			ExecSlots:          cfg.ExecSlots,
			Costs:              cfg.Costs,
			DefaultOwner:       cfg.Placement,
			TrackPartitionRows: trackRows,
		})
		if err != nil {
			b.broker.Close()
			return nil, err
		}
		b.sites[i] = s
	}
	for _, s := range b.sites {
		s.Start()
	}
	return b, nil
}

func (b *base) CreateTable(name string) {
	for _, s := range b.sites {
		s.Store().CreateTable(name)
	}
}

// loadReplicated installs rows on every site; placement decides mastership.
func (b *base) loadReplicated(rows []LoadRow) {
	loadStamp := storage.Stamp{Origin: 0, Seq: 0}
	seen := make(map[uint64]struct{})
	for _, row := range rows {
		part := b.cfg.Partitioner(row.Ref)
		if _, ok := seen[part]; !ok {
			seen[part] = struct{}{}
			owner := b.cfg.Placement(part)
			for i, s := range b.sites {
				s.SetMaster(part, i == owner)
			}
		}
		for _, s := range b.sites {
			s.Store().ImportRow(row.Ref.Table, row.Ref.Key, row.Data, loadStamp)
		}
	}
}

// loadPartitioned installs each row only at its partition's owner site,
// except rows of replicated (static read-only) tables, which go everywhere.
func (b *base) loadPartitioned(rows []LoadRow) {
	loadStamp := storage.Stamp{Origin: 0, Seq: 0}
	seen := make(map[uint64]struct{})
	for _, row := range rows {
		part := b.cfg.Partitioner(row.Ref)
		owner := b.cfg.Placement(part)
		if _, ok := seen[part]; !ok {
			seen[part] = struct{}{}
			for i, s := range b.sites {
				s.SetMaster(part, i == owner)
			}
		}
		if b.cfg.ReplicatedTables[row.Ref.Table] {
			for _, s := range b.sites {
				s.Store().ImportRow(row.Ref.Table, row.Ref.Key, row.Data, loadStamp)
			}
			continue
		}
		b.sites[owner].LoadRow(row.Ref, row.Data)
	}
}

func (b *base) stats() Stats {
	st := Stats{
		Remasters:      b.remasters.Load(),
		Distributed:    b.distributed.Load(),
		PerSiteCommits: make([]uint64, len(b.sites)),
		Network:        b.net.Stats(),
	}
	for i, s := range b.sites {
		st.PerSiteCommits[i] = s.Commits()
		st.Commits += s.Commits()
	}
	return st
}

func (b *base) close() {
	b.broker.Close()
	for _, s := range b.sites {
		s.Stop()
	}
}

// randSite picks a uniformly random site.
func (b *base) randSite() int {
	b.rngMu.Lock()
	defer b.rngMu.Unlock()
	return b.rng.Intn(len(b.sites))
}

// randFresh picks a random site whose vector dominates cvv, or the least
// lagged site if none does.
func (b *base) randFresh(cvv vclock.Vector) int {
	fresh := make([]int, 0, len(b.sites))
	bestLag, bestSite := uint64(1)<<63, 0
	for i, s := range b.sites {
		svv := s.SVV()
		if svv.DominatesEq(cvv) {
			fresh = append(fresh, i)
			continue
		}
		if lag := svv.LagBehind(cvv); lag < bestLag {
			bestLag, bestSite = lag, i
		}
	}
	if len(fresh) == 0 {
		return bestSite
	}
	b.rngMu.Lock()
	defer b.rngMu.Unlock()
	return fresh[b.rng.Intn(len(fresh))]
}

// partsOf returns the deduplicated partitions of a write set grouped by
// their owning site under the static placement.
func (b *base) ownersOf(writeSet []storage.RowRef) map[int][]storage.RowRef {
	owners := make(map[int][]storage.RowRef)
	for _, ref := range writeSet {
		owner := b.cfg.Placement(b.cfg.Partitioner(ref))
		owners[owner] = append(owners[owner], ref)
	}
	return owners
}

// localTx runs a single-site update transaction at site: one stored-
// procedure round trip, execution-pool charging, commit. It returns the
// commit vector.
func (b *base) localTx(site *sitemgr.Site, minVV vclock.Vector, writeSet []storage.RowRef, fn func(Tx) error) (vclock.Vector, error) {
	b.net.Send(transport.CatTxn, transport.MsgOverhead+transport.SizeOfRefs(writeSet))
	tx, err := site.Begin(minVV, writeSet)
	if err != nil {
		return nil, err
	}
	// Run the logic, then charge its modelled CPU through the site's
	// execution slots — the engine does not hold a core while a
	// transaction blocks on the network.
	ferr := fn(siteTx{tx})
	site.Exec(tx.Cost)
	if ferr != nil {
		tx.Abort()
		return nil, ferr
	}
	tvv, err := tx.Commit()
	if err != nil {
		return nil, err
	}
	b.net.Send(transport.CatTxn, transport.MsgOverhead+transport.SizeOfVector(tvv))
	return tvv, nil
}

// readTx runs a read-only transaction at site: a routing round trip (every
// replicated system picks a session-fresh replica using cluster metadata a
// client cannot hold locally), then one stored-procedure round trip with
// execution-pool charging. It returns the observed snapshot.
func (b *base) readTx(site *sitemgr.Site, cvv vclock.Vector, fn func(Tx) error) (vclock.Vector, error) {
	b.net.RoundTrip(transport.CatRoute, transport.MsgOverhead+transport.SizeOfVector(cvv), transport.MsgOverhead)
	b.net.Send(transport.CatTxn, transport.MsgOverhead)
	tx, err := site.Begin(cvv, nil)
	if err != nil {
		return nil, err
	}
	// Run the logic, then charge its modelled CPU through the site's
	// execution slots — the engine does not hold a core while a
	// transaction blocks on the network.
	ferr := fn(siteTx{tx})
	site.Exec(tx.Cost)
	if ferr != nil {
		tx.Abort()
		return nil, ferr
	}
	snap := tx.Snapshot()
	if _, err := tx.Commit(); err != nil {
		return nil, err
	}
	b.net.Send(transport.CatTxn, transport.MsgOverhead)
	return snap, nil
}

// siteTx adapts *sitemgr.Txn to the Tx interface.
type siteTx struct{ tx *sitemgr.Txn }

func (a siteTx) Read(ref storage.RowRef) ([]byte, bool) { return a.tx.Read(ref) }
func (a siteTx) Scan(table string, lo, hi uint64) []storage.KV {
	return a.tx.Scan(table, lo, hi)
}
func (a siteTx) Write(ref storage.RowRef, data []byte) error { return a.tx.Write(ref, data) }

// sessionVV returns the session-freshness vector a site must dominate
// before a client's transaction begins. In non-replicated systems
// (partition-store, LEAP) each data item has a single physical copy, so a
// client's session state is trivially current at the owning site and no
// wait applies — remote dimensions of a non-replicated site's clock never
// advance, so waiting on them would block forever.
func (b *base) sessionVV(cvv vclock.Vector) vclock.Vector {
	if !b.replicated {
		return nil
	}
	return cvv
}
