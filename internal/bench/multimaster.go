package bench

import (
	"sort"
	"time"

	"dynamast/internal/sitemgr"
	"dynamast/internal/storage"
	"dynamast/internal/systems"
	"dynamast/internal/transport"
	"dynamast/internal/twopc"
	"dynamast/internal/vclock"
)

// multiMaster is the replicated multi-master architecture: master copies
// are statically partitioned across the sites (distributing the update
// load) and every site lazily maintains replicas of everything (so
// read-only transactions run anywhere). Write transactions whose write set
// spans multiple masters must run an expensive distributed commit (2PC),
// blocking conflicting local transactions during the uncertain phase
// (§II-A, Figure 1b).
type multiMaster struct{ *baseline }

// Name implements systems.System.
func (s *multiMaster) Name() string { return string(KindMultiMaster) }

// NewClient implements systems.System.
func (s *multiMaster) NewClient(id int) systems.Client {
	return &mmClient{sys: s, cvv: vclock.New(len(s.sites))}
}

type mmClient struct {
	sys *multiMaster
	cvv vclock.Vector
}

// Update routes single-master-site write sets to a local transaction at
// that master; distributed write sets run 2PC across the owning sites.
func (c *mmClient) Update(writeSet []storage.RowRef, fn func(systems.Tx) error) error {
	s := c.sys
	// All systems in the evaluation framework route transactions through
	// a selector/router component (§VI-A1).
	s.net.RoundTrip(transport.CatRoute, transport.MsgOverhead+transport.SizeOfRefs(writeSet), transport.MsgOverhead)
	owners := s.ownersOf(writeSet)
	if len(owners) <= 1 {
		site := 0
		for id := range owners {
			site = id
		}
		tvv, err := s.localTx(s.sites[site], c.cvv, writeSet, fn)
		if err != nil {
			return err
		}
		c.cvv = c.cvv.MaxInto(tvv)
		return nil
	}
	tvv, err := s.distributedTx(c.cvv, owners, fn, func(coord *sitemgr.Site) *bufferedTx {
		return &bufferedTx{site: coord, snap: coord.SVV()}
	})
	if err != nil {
		return err
	}
	c.cvv = c.cvv.MaxInto(tvv)
	return nil
}

// Read runs at any replica satisfying the session's freshness (the hint is
// unused: replicas hold everything).
func (c *mmClient) Read(hint []storage.RowRef, fn func(systems.Tx) error) error {
	s := c.sys
	snap, err := s.readTx(s.sites[s.randFresh(c.cvv)], c.cvv, fn)
	if err != nil {
		return err
	}
	c.cvv = c.cvv.MaxInto(snap)
	return nil
}

// distributedTx executes a multi-site write transaction with 2PC under a
// 2PL-style lock discipline. The coordinating site is the owner of the
// largest share of the write set. Locks on the full distributed write set
// are acquired first (prepare phase), in ascending site order — a global
// acquisition order that makes concurrent distributed transactions
// deadlock-free, standing in for the deadlock detection a production 2PL
// system would run. The stored procedure then executes at the coordinator
// (against the local replica in multi-master; remote reads in
// partition-store, wired by the caller via mkTx), and the parallel commit
// phase installs each owner's writes. Locks are held from prepare through
// the global decision — the uncertain-phase blocking window.
func (b *baseline) distributedTx(cvv vclock.Vector, owners map[int][]storage.RowRef,
	fn func(systems.Tx) error, mkTx func(coord *sitemgr.Site) *bufferedTx) (vclock.Vector, error) {
	b.distributed.Add(1)
	coordID, most := 0, -1
	ids := make([]int, 0, len(owners))
	for id, refs := range owners {
		ids = append(ids, id)
		if len(refs) > most {
			coordID, most = id, len(refs)
		}
	}
	sort.Ints(ids)
	coordSite := b.sites[coordID]
	coord := twopc.NewCoordinator(b.net)

	// Client -> coordinating site stored-procedure round trip (request),
	// then the session-freshness wait (none under factor 1: cvv is nil).
	b.net.Send(transport.CatTxn, transport.MsgOverhead)
	if len(cvv) > 0 {
		coordSite.Clock().WaitDominatesEq(cvv)
	}

	// Phase 1: acquire the distributed write locks in global site order.
	work := make(map[int]twopc.Work, len(owners))
	sites := make(map[int]twopc.Participant, len(owners))
	for id, refs := range owners {
		work[id] = twopc.Work{WriteSet: refs}
		sites[id] = b.sites[id]
	}
	txnID := coordSite.NextTxnID()
	var prepSnap vclock.Vector
	for _, id := range ids {
		snap, err := coord.Prepare(txnID, map[int]twopc.Work{id: work[id]},
			map[int]twopc.Participant{id: sites[id]})
		if err != nil {
			coord.Abort(txnID, work, sites)
			return nil, err
		}
		prepSnap = prepSnap.MaxInto(snap)
	}

	// In a replicated system the coordinator waits until its replica
	// reflects every participant's committed state for the locked records
	// (their prepare snapshots), so the execution reads current values.
	if b.replicated {
		coordSite.Clock().WaitDominatesEq(prepSnap)
	}

	// Phase 2: execute the stored procedure at the coordinator.
	tx := mkTx(coordSite)
	ferr := fn(tx)
	coordSite.Exec(func() time.Duration { return tx.cost(coordSite.Costs()) })
	if ferr != nil {
		coord.Abort(txnID, work, sites)
		return nil, ferr
	}

	// Phase 3: distribute the buffered writes and commit in parallel.
	for _, w := range tx.writes {
		owner := b.placement(b.partitioner(w.Ref))
		entry := work[owner]
		entry.Writes = append(entry.Writes, w)
		work[owner] = entry
	}
	tvv, err := coord.Commit(txnID, work, sites)
	if err != nil {
		return nil, err
	}
	b.net.Send(transport.CatTxn, transport.MsgOverhead+transport.SizeOfVector(tvv))
	return tvv, nil
}

// bufferedTx executes a distributed transaction's logic at the coordinating
// site: reads and scans against the local snapshot, writes buffered for the
// 2PC decision phase.
type bufferedTx struct {
	site     *sitemgr.Site
	snap     vclock.Vector
	writes   []storage.Write
	nReads   int
	nScanned int

	// remote, when non-nil, redirects reads of non-local partitions
	// (partition-store, which has no replicas).
	remote func(ref storage.RowRef) ([]byte, bool, bool) // data, ok, handled
	// remoteScan, when non-nil, merges rows owned by other sites.
	remoteScan func(table string, lo, hi uint64) ([]storage.KV, bool)
}

func (t *bufferedTx) Read(ref storage.RowRef) ([]byte, bool) {
	t.nReads++
	// Own writes first.
	for i := len(t.writes) - 1; i >= 0; i-- {
		if t.writes[i].Ref == ref {
			if t.writes[i].Deleted {
				return nil, false
			}
			return t.writes[i].Data, true
		}
	}
	if t.remote != nil {
		if data, ok, handled := t.remote(ref); handled {
			return data, ok
		}
	}
	return t.site.Store().Get(ref, t.snap)
}

func (t *bufferedTx) Scan(table string, lo, hi uint64) []storage.KV {
	if t.remoteScan != nil {
		if rows, handled := t.remoteScan(table, lo, hi); handled {
			t.nScanned += len(rows)
			return rows
		}
	}
	tb := t.site.Store().Table(table)
	if tb == nil {
		return nil
	}
	rows := tb.Scan(lo, hi, t.snap)
	t.nScanned += len(rows)
	return rows
}

func (t *bufferedTx) Write(ref storage.RowRef, data []byte) error {
	t.writes = append(t.writes, storage.Write{Ref: ref, Data: data})
	return nil
}

func (t *bufferedTx) cost(cm sitemgr.CostModel) time.Duration {
	if cm.Zero() {
		return 0
	}
	return cm.TxnBase +
		time.Duration(t.nReads)*cm.PerRead +
		time.Duration(len(t.writes))*cm.PerWrite +
		time.Duration(t.nScanned)*cm.PerScanKey
}
