package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"dynamast/internal/core"
	"dynamast/internal/selector"
	"dynamast/internal/sitemgr"
	"dynamast/internal/storage"
	"dynamast/internal/systems"
	"dynamast/internal/transport"
	"dynamast/internal/vclock"
)

// The four comparators of §VI-A1 — single-master, multi-master,
// partition-store and LEAP — are configurations of the core cluster that
// DynaMast runs on: the same sites, storage engine, MVCC scheme, update logs
// and isolation level. Each keeps only its routing rule. The clients bypass
// the site selector, so the selector never remasters for them: they route by
// the workload's static placement, or, in LEAP, localize what a transaction
// touches to the client's home site.

// baseline is the substrate every comparator shares.
type baseline struct {
	c           *core.Cluster
	sites       []*sitemgr.Site
	net         *transport.Network
	partitioner sitemgr.Partitioner
	// placement is the static partition placement the cluster started from
	// (site 0 for every partition under single-master).
	placement func(part uint64) int
	// staticTables are the read-only tables (TPC-C's item) whose partitions
	// the factor-1 systems host at every site.
	staticTables map[string]bool
	// replicated is set under full replication (single- and multi-master);
	// partition-store and LEAP keep one copy of each partition.
	replicated bool

	rngMu sync.Mutex
	rng   *rand.Rand

	remasters   atomic.Uint64
	distributed atomic.Uint64
}

// currentReplicas is the factor-1 systems' placement policy: a partition's
// desired replica set is the one it has, so the placement controller never
// adds or drops a copy behind the baseline's back.
type currentReplicas struct{}

// Decide implements selector.PlacementPolicy.
func (currentReplicas) Decide(st selector.PartitionStats) []selector.SiteID { return st.Replicas }

// newBaseline builds one comparator over partitioner and the static
// placement. Every comparator starts from that placement and keeps
// per-transaction commit records; single-master masters every partition at
// site 0; partition-store and LEAP run at replication factor 1, with the
// static tables hosted everywhere.
func newBaseline(kind SystemKind, env Env, partitioner sitemgr.Partitioner,
	placement func(part uint64) int, staticTables map[string]bool) (systems.System, error) {
	switch kind {
	case KindSingleMaster:
		placement = func(uint64) int { return 0 }
	case KindMultiMaster, KindPartitionStore, KindLEAP:
	default:
		return nil, fmt.Errorf("bench: unknown system %q", kind)
	}
	replicated := kind == KindSingleMaster || kind == KindMultiMaster
	cfg := core.Config{
		Sites:         env.Sites,
		Partitioner:   partitioner,
		Network:       env.Network,
		ExecSlots:     env.ExecSlots,
		Costs:         env.Costs,
		InitialMaster: placement,
		EpochInterval: -1,
		Seed:          env.Seed,
	}
	if !replicated {
		// No upper bound: static tables grow to every site.
		cfg.MinReplicas = 1
		cfg.PlacementPolicy = currentReplicas{}
	}
	c, err := core.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	b := &baseline{
		c:            c,
		sites:        c.Sites(),
		net:          c.Network(),
		partitioner:  partitioner,
		placement:    placement,
		staticTables: staticTables,
		replicated:   replicated,
		rng:          rand.New(rand.NewSource(env.Seed)),
	}
	switch kind {
	case KindSingleMaster:
		return &singleMaster{b}, nil
	case KindMultiMaster:
		return &multiMaster{b}, nil
	case KindPartitionStore:
		return &partitionStore{b}, nil
	}
	return &leap{baseline: b, plocks: make(map[uint64]*sync.Mutex)}, nil
}

// CreateTable implements systems.System.
func (b *baseline) CreateTable(name string) { b.c.CreateTable(name) }

// Load implements systems.System: the cluster places each partition's rows
// on its replica set, and under factor 1 every site then joins the static
// tables' replica sets.
func (b *baseline) Load(rows []systems.LoadRow) {
	b.c.Load(rows)
	if b.replicated {
		return
	}
	seen := make(map[uint64]struct{})
	for _, row := range rows {
		if !b.staticTables[row.Ref.Table] {
			continue
		}
		part := b.partitioner(row.Ref)
		if _, ok := seen[part]; ok {
			continue
		}
		seen[part] = struct{}{}
		for site := range b.sites {
			// Fails only for an unknown or dead site; neither exists here.
			_, _ = b.c.AddReplica(part, site)
		}
	}
}

// Stats implements systems.System.
func (b *baseline) Stats() systems.Stats {
	st := b.c.Stats()
	st.Remasters = b.remasters.Load()
	st.Distributed = b.distributed.Load()
	return st
}

// Close implements systems.System.
func (b *baseline) Close() { b.c.Close() }

// randSite picks a uniformly random site.
func (b *baseline) randSite() int {
	b.rngMu.Lock()
	defer b.rngMu.Unlock()
	return b.rng.Intn(len(b.sites))
}

// randFresh picks a random site whose vector dominates cvv, or the least
// lagged site if none does.
func (b *baseline) randFresh(cvv vclock.Vector) int {
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

// ownersOf groups a write set by owning site under the static placement.
func (b *baseline) ownersOf(writeSet []storage.RowRef) map[int][]storage.RowRef {
	owners := make(map[int][]storage.RowRef)
	for _, ref := range writeSet {
		owner := b.placement(b.partitioner(ref))
		owners[owner] = append(owners[owner], ref)
	}
	return owners
}

// retry runs one transaction attempt and resubmits it while it fails with
// an error core.Retryable accepts — a snapshot older than the retained
// version history, a partition released, moved or not hosted at the site —
// at most core.BeginRetries times, the bound DynaMast's sessions use.
func retry(attempt func() error) error {
	for n := 0; ; n++ {
		err := attempt()
		if err == nil || n >= core.BeginRetries || !core.Retryable(err) {
			return err
		}
	}
}

// finish ends a transaction whose stored procedure returned ferr. A read
// that poisoned tx (a stale snapshot, a partition not hosted here) outranks
// ferr: whatever the procedure computed came from an unsound miss, and
// Commit aborts with the retryable cause. Any other error aborts; success
// commits and returns the commit vector (the snapshot for read-only
// transactions).
func finish(tx *sitemgr.Txn, ferr error) (vclock.Vector, error) {
	if ferr != nil && !tx.SnapshotTooOld() && len(tx.NotHostedParts()) == 0 {
		tx.Abort()
		return nil, ferr
	}
	return tx.Commit()
}

// localTx runs a single-site update transaction at site: one stored-
// procedure round trip, execution-pool charging, commit. It returns the
// commit vector.
func (b *baseline) localTx(site *sitemgr.Site, minVV vclock.Vector, writeSet []storage.RowRef, fn func(systems.Tx) error) (tvv vclock.Vector, err error) {
	err = retry(func() error {
		b.net.Send(transport.CatTxn, transport.MsgOverhead+transport.SizeOfRefs(writeSet))
		tx, err := site.Begin(minVV, writeSet)
		if err != nil {
			return err
		}
		// Run the logic, then charge its modelled CPU through the site's
		// execution slots — the engine does not hold a core while a
		// transaction blocks on the network.
		ferr := fn(siteTx{tx})
		site.Exec(tx.Cost)
		if tvv, err = finish(tx, ferr); err != nil {
			return err
		}
		b.net.Send(transport.CatTxn, transport.MsgOverhead+transport.SizeOfVector(tvv))
		return nil
	})
	return tvv, err
}

// readTx runs a read-only transaction at site: a routing round trip (every
// replicated system picks a session-fresh replica using cluster metadata a
// client cannot hold locally), then one stored-procedure round trip with
// execution-pool charging. It returns the observed snapshot.
func (b *baseline) readTx(site *sitemgr.Site, cvv vclock.Vector, fn func(systems.Tx) error) (snap vclock.Vector, err error) {
	err = retry(func() error {
		b.net.RoundTrip(transport.CatRoute, transport.MsgOverhead+transport.SizeOfVector(cvv), transport.MsgOverhead)
		b.net.Send(transport.CatTxn, transport.MsgOverhead)
		tx, err := site.Begin(cvv, nil)
		if err != nil {
			return err
		}
		ferr := fn(siteTx{tx})
		site.Exec(tx.Cost)
		if snap, err = finish(tx, ferr); err != nil {
			return err
		}
		b.net.Send(transport.CatTxn, transport.MsgOverhead)
		return nil
	})
	return snap, err
}

// siteTx adapts *sitemgr.Txn to the systems.Tx interface.
type siteTx struct{ tx *sitemgr.Txn }

func (a siteTx) Read(ref storage.RowRef) ([]byte, bool) { return a.tx.Read(ref) }
func (a siteTx) Scan(table string, lo, hi uint64) []storage.KV {
	return a.tx.Scan(table, lo, hi)
}
func (a siteTx) Write(ref storage.RowRef, data []byte) error { return a.tx.Write(ref, data) }
