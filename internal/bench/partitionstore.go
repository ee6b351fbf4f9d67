package bench

import (
	"sort"
	"time"

	"dynamast/internal/sitemgr"
	"dynamast/internal/storage"
	"dynamast/internal/systems"
	"dynamast/internal/transport"
)

// partitionStore is the partitioned multi-master architecture without
// replication: each partition lives only at its statically assigned site
// (range partitioning for YCSB, warehouse partitioning for TPC-C — the
// placements Schism found optimal, favouring this baseline). Distributed
// write sets run 2PC; reads of remote partitions are remote RPCs, and
// multi-partition read-only transactions fan out to the owning sites,
// paying straggler effects (§VI-A1, §VI-B2).
type partitionStore struct{ *baseline }

// Name implements systems.System.
func (s *partitionStore) Name() string { return string(KindPartitionStore) }

// NewClient implements systems.System.
func (s *partitionStore) NewClient(id int) systems.Client {
	return &psClient{sys: s}
}

type psClient struct{ sys *partitionStore }

// remoteRead serves a read of a row owned by another site: one RPC round
// trip to the owner.
func (b *baseline) remoteRead(execSite int, ref storage.RowRef) ([]byte, bool, bool) {
	owner := b.placement(b.partitioner(ref))
	if owner == execSite || b.staticTables[ref.Table] {
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
func (b *baseline) fanoutScan(execSite int, table string, lo, hi uint64) ([]storage.KV, bool) {
	if b.staticTables[table] {
		return nil, false
	}
	// Identify owner sites of the scanned partitions by probing the
	// partitioner over the key range boundaries of each partition; since
	// partitioners are range-based for scannable tables, sampling each
	// distinct partition in [lo, hi) suffices.
	ownerSet := make(map[int]struct{})
	seen := make(map[uint64]struct{})
	for k := lo; k < hi; k++ {
		p := b.partitioner(storage.RowRef{Table: table, Key: k})
		if _, ok := seen[p]; ok {
			continue
		}
		seen[p] = struct{}{}
		ownerSet[b.placement(p)] = struct{}{}
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
// partitions become remote RPCs. Each data item has a single copy, so a
// client's session state is trivially current at the owning site and no
// freshness wait applies.
func (c *psClient) Update(writeSet []storage.RowRef, fn func(systems.Tx) error) error {
	s := c.sys
	// Routed through the framework's selector/router component.
	s.net.RoundTrip(transport.CatRoute, transport.MsgOverhead+transport.SizeOfRefs(writeSet), transport.MsgOverhead)
	owners := s.ownersOf(writeSet)
	if len(owners) == 1 {
		for id := range owners {
			return s.localPartitionedTx(id, writeSet, fn)
		}
	}
	_, err := s.distributedTx(nil, owners, fn, func(coord *sitemgr.Site) *bufferedTx {
		tx := &bufferedTx{site: coord, snap: coord.SVV()}
		tx.remote = func(ref storage.RowRef) ([]byte, bool, bool) {
			return s.remoteRead(coord.ID(), ref)
		}
		tx.remoteScan = func(table string, lo, hi uint64) ([]storage.KV, bool) {
			return s.fanoutScan(coord.ID(), table, lo, hi)
		}
		return tx
	})
	return err
}

// localPartitionedTx is a single-owner update transaction that may still
// read remote partitions.
func (b *baseline) localPartitionedTx(siteID int, writeSet []storage.RowRef, fn func(systems.Tx) error) error {
	site := b.sites[siteID]
	return retry(func() error {
		b.net.Send(transport.CatTxn, transport.MsgOverhead+transport.SizeOfRefs(writeSet))
		tx, err := site.Begin(nil, writeSet)
		if err != nil {
			return err
		}
		ferr := fn(&partitionedLocalTx{tx: tx, b: b, execSite: siteID})
		site.Exec(tx.Cost)
		tvv, err := finish(tx, ferr)
		if err != nil {
			return err
		}
		b.net.Send(transport.CatTxn, transport.MsgOverhead+transport.SizeOfVector(tvv))
		return nil
	})
}

// partitionedLocalTx wraps a local transaction with remote reads for
// partitions owned elsewhere.
type partitionedLocalTx struct {
	tx       *sitemgr.Txn
	b        *baseline
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
func (c *psClient) Read(hint []storage.RowRef, fn func(systems.Tx) error) error {
	s := c.sys
	siteID := s.randSite()
	if len(hint) > 0 {
		siteID = s.placement(s.partitioner(hint[0]))
	}
	site := s.sites[siteID]
	return retry(func() error {
		s.net.RoundTrip(transport.CatRoute, transport.MsgOverhead, transport.MsgOverhead)
		s.net.Send(transport.CatTxn, transport.MsgOverhead)
		tx, err := site.Begin(nil, nil)
		if err != nil {
			return err
		}
		ferr := fn(&partitionedLocalTx{tx: tx, b: s.baseline, execSite: siteID})
		site.Exec(tx.Cost)
		if _, err := finish(tx, ferr); err != nil {
			return err
		}
		s.net.Send(transport.CatTxn, transport.MsgOverhead)
		return nil
	})
}
