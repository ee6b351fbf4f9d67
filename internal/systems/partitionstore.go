package systems

import (
	"sort"
	"time"

	"dynamast/internal/sitemgr"
	"dynamast/internal/storage"
	"dynamast/internal/transport"
	"dynamast/internal/vclock"
)

// PartitionStore is the partitioned multi-master architecture without
// replication: each partition lives only at its statically assigned site
// (range partitioning for YCSB, warehouse partitioning for TPC-C — the
// placements Schism found optimal, favouring this baseline). Distributed
// write sets run 2PC; reads of remote partitions are remote RPCs, and
// multi-partition read-only transactions fan out to the owning sites,
// paying straggler effects (§VI-A1, §VI-B2).
type PartitionStore struct {
	*base
}

// NewPartitionStore builds a partition-store with cfg.Placement as the
// static partitioning.
func NewPartitionStore(cfg BaseConfig) (*PartitionStore, error) {
	b, err := newBase(cfg, false, false)
	if err != nil {
		return nil, err
	}
	return &PartitionStore{base: b}, nil
}

// Name implements System.
func (s *PartitionStore) Name() string { return "partition-store" }

// Load implements System: rows live only at their owner site (replicated
// static tables excepted).
func (s *PartitionStore) Load(rows []LoadRow) { s.loadPartitioned(rows) }

// Stats implements System.
func (s *PartitionStore) Stats() Stats { return s.stats() }

// Close implements System.
func (s *PartitionStore) Close() { s.close() }

// NewClient implements System.
func (s *PartitionStore) NewClient(id int) Client {
	return &psClient{sys: s, cvv: vclock.New(len(s.sites))}
}

type psClient struct {
	sys *PartitionStore
	cvv vclock.Vector
}

// remoteRead serves a read of a row owned by another site: one RPC round
// trip to the owner.
func (b *base) remoteRead(execSite int, ref storage.RowRef) ([]byte, bool, bool) {
	owner := b.cfg.Placement(b.cfg.Partitioner(ref))
	if owner == execSite || b.cfg.ReplicatedTables[ref.Table] {
		return nil, false, false // local; not handled here
	}
	b.net.RoundTrip(transport.CatTxn, transport.MsgOverhead+10, transport.MsgOverhead)
	data, ok := b.sites[owner].ReadLocal(ref)
	// The remote sub-request consumes the owner's execution capacity.
	costs := b.sites[owner].Costs()
	b.sites[owner].Exec(func() time.Duration { return costs.TxnBase/2 + costs.PerRead })
	return data, ok, true
}

// fanoutScan serves a range scan whose partitions may span several owner
// sites: parallel per-site scans, waiting for the slowest (straggler
// effect). Handled is false when the whole range is local to execSite.
func (b *base) fanoutScan(execSite int, table string, lo, hi uint64) ([]storage.KV, bool) {
	if b.cfg.ReplicatedTables[table] {
		return nil, false
	}
	// Identify owner sites of the scanned partitions by probing the
	// partitioner over the key range boundaries of each partition; since
	// partitioners are range-based for scannable tables, sampling each
	// distinct partition in [lo, hi) suffices.
	ownerSet := make(map[int]struct{})
	seen := make(map[uint64]struct{})
	for k := lo; k < hi; k++ {
		p := b.cfg.Partitioner(storage.RowRef{Table: table, Key: k})
		if _, ok := seen[p]; ok {
			continue
		}
		seen[p] = struct{}{}
		ownerSet[b.cfg.Placement(p)] = struct{}{}
	}
	if len(ownerSet) == 1 {
		if _, only := ownerSet[execSite]; only {
			return nil, false // fully local
		}
	}
	owners := make([]int, 0, len(ownerSet))
	for id := range ownerSet {
		owners = append(owners, id)
	}
	sort.Ints(owners)
	type result struct {
		rows []storage.KV
	}
	results := make(chan result, len(owners))
	for _, id := range owners {
		go func(id int) {
			site := b.sites[id]
			rows := site.ScanLocal(table, lo, hi)
			// Each sub-scan consumes its owner's execution capacity; the
			// caller waits for the slowest site (straggler effect).
			costs := site.Costs()
			site.Exec(func() time.Duration {
				return costs.TxnBase/2 + time.Duration(len(rows))*costs.PerScanKey
			})
			if id != execSite {
				b.net.RoundTrip(transport.CatTxn,
					transport.MsgOverhead, transport.MsgOverhead+transport.SizeOfRows(rows))
			}
			results <- result{rows}
		}(id)
	}
	var all []storage.KV
	for range owners {
		r := <-results
		all = append(all, r.rows...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	return all, true
}

// Update routes single-owner write sets to a local transaction; spanning
// write sets run 2PC. Reads inside update transactions that touch remote
// partitions become remote RPCs.
func (c *psClient) Update(writeSet []storage.RowRef, fn func(Tx) error) error {
	s := c.sys
	// Routed through the framework's selector/router component.
	s.net.RoundTrip(transport.CatRoute, transport.MsgOverhead+transport.SizeOfRefs(writeSet), transport.MsgOverhead)
	owners := s.ownersOf(writeSet)
	if len(owners) == 1 {
		var site int
		for id := range owners {
			site = id
		}
		tvv, err := s.localPartitionedTx(site, s.sessionVV(c.cvv), writeSet, fn)
		if err != nil {
			return err
		}
		c.cvv = c.cvv.MaxInto(tvv)
		return nil
	}
	tvv, err := s.distributedTx(c.cvv, owners, fn, func(coord *sitemgr.Site) *bufferedTx {
		tx := &bufferedTx{site: coord, snap: coord.SVV()}
		tx.remote = func(ref storage.RowRef) ([]byte, bool, bool) {
			return s.remoteRead(coord.ID(), ref)
		}
		tx.remoteScan = func(table string, lo, hi uint64) ([]storage.KV, bool) {
			return s.fanoutScan(coord.ID(), table, lo, hi)
		}
		return tx
	})
	if err != nil {
		return err
	}
	c.cvv = c.cvv.MaxInto(tvv)
	return nil
}

// localPartitionedTx is a single-owner update transaction that may still
// read remote partitions.
func (b *base) localPartitionedTx(siteID int, cvv vclock.Vector, writeSet []storage.RowRef, fn func(Tx) error) (vclock.Vector, error) {
	site := b.sites[siteID]
	b.net.Send(transport.CatTxn, transport.MsgOverhead+transport.SizeOfRefs(writeSet))
	tx, err := site.Begin(cvv, writeSet)
	if err != nil {
		return nil, err
	}
	adapter := &partitionedLocalTx{tx: tx, b: b, execSite: siteID}
	ferr := fn(adapter)
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

// partitionedLocalTx wraps a local transaction with remote reads for
// partitions owned elsewhere.
type partitionedLocalTx struct {
	tx       *sitemgr.Txn
	b        *base
	execSite int
}

func (t *partitionedLocalTx) Read(ref storage.RowRef) ([]byte, bool) {
	if data, ok, handled := t.b.remoteRead(t.execSite, ref); handled {
		return data, ok
	}
	return t.tx.Read(ref)
}

func (t *partitionedLocalTx) Scan(table string, lo, hi uint64) []storage.KV {
	if rows, handled := t.b.fanoutScan(t.execSite, table, lo, hi); handled {
		return rows
	}
	return t.tx.Scan(table, lo, hi)
}

func (t *partitionedLocalTx) Write(ref storage.RowRef, data []byte) error {
	return t.tx.Write(ref, data)
}

// Read executes a read-only transaction at the site owning the hinted
// rows (reads and scans of other partitions reach across and wait for the
// slowest site); without a hint a random site coordinates.
func (c *psClient) Read(hint []storage.RowRef, fn func(Tx) error) error {
	s := c.sys
	siteID := s.randSite()
	if len(hint) > 0 {
		siteID = s.cfg.Placement(s.cfg.Partitioner(hint[0]))
	}
	site := s.sites[siteID]
	s.net.RoundTrip(transport.CatRoute, transport.MsgOverhead, transport.MsgOverhead)
	s.net.Send(transport.CatTxn, transport.MsgOverhead)
	tx, err := site.Begin(nil, nil)
	if err != nil {
		return err
	}
	adapter := &partitionedLocalTx{tx: tx, b: s.base, execSite: siteID}
	ferr := fn(adapter)
	site.Exec(tx.Cost)
	if ferr != nil {
		tx.Abort()
		return ferr
	}
	_, err = tx.Commit()
	s.net.Send(transport.CatTxn, transport.MsgOverhead)
	return err
}
