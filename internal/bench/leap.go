package bench

import (
	"fmt"
	"slices"
	"sync"

	"dynamast/internal/core"
	"dynamast/internal/sitemgr"
	"dynamast/internal/storage"
	"dynamast/internal/systems"
	"dynamast/internal/transport"
)

// leap guarantees single-site transaction execution like DynaMast, but on a
// partitioned store without replication: before a transaction runs, every
// partition in its read and write sets is *localized* to the execution site
// — its rows are shipped from their current owner and mastership moves
// along. LEAP has no routing strategies, so hot data ping-pongs between
// sites and read-only transactions also pay localization (§VI-A1, [14]).
//
// A localization is the sequence partial replication already runs: the
// destination joins the partition's replica set (copying its rows), the
// source releases mastership and the destination is granted it under a
// fresh remaster epoch, the selector's map records the new master, and the
// source leaves the replica set. The selector's map is LEAP's locator.
type leap struct {
	*baseline

	// plocks serialize competing localizations of a partition.
	mu     sync.Mutex
	plocks map[uint64]*sync.Mutex
}

// Name implements systems.System.
func (s *leap) Name() string { return string(KindLEAP) }

// NewClient implements systems.System. Lacking routing strategies, LEAP pins
// each client to a home site on first touch — the site owning the client's
// first written partition (execute where the data starts; the data then
// follows the client) — and localizes whatever its transactions touch.
func (s *leap) NewClient(id int) systems.Client {
	return &leapClient{sys: s, home: -1, fallback: id % len(s.sites)}
}

// ownerOf returns the partition's current master.
func (s *leap) ownerOf(part uint64) int { return s.c.Group().MasterOf(part) }

// plock returns the partition's localization mutex.
func (s *leap) plock(part uint64) *sync.Mutex {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.plocks[part]
	if !ok {
		m = &sync.Mutex{}
		s.plocks[part] = m
	}
	return m
}

// partsOf returns the partitions of refs.
func (s *leap) partsOf(refs []storage.RowRef) []uint64 {
	parts := make([]uint64, 0, len(refs))
	for _, ref := range refs {
		parts = append(parts, s.partitioner(ref))
	}
	return parts
}

// rangeParts returns the partitions a scan of table over [lo, hi) covers.
func (s *leap) rangeParts(table string, lo, hi uint64) []uint64 {
	var parts []uint64
	for k := lo; k < hi; k++ {
		p := s.partitioner(storage.RowRef{Table: table, Key: k})
		if n := len(parts); n == 0 || parts[n-1] != p {
			parts = append(parts, p)
		}
	}
	return parts
}

// localize moves the listed partitions not yet at dest there and then runs
// read, if any, holding every listed partition's lock (taken in ascending
// order) throughout, so no competing localization moves them away before
// read is done. Locks are never taken while a transaction holds partition
// writers, so the releases' writer drains cannot deadlock.
func (s *leap) localize(dest int, parts []uint64, read func()) error {
	slices.Sort(parts)
	parts = slices.Compact(parts)
	for _, p := range parts {
		s.plock(p).Lock()
	}
	defer func() {
		for _, p := range parts {
			s.plock(p).Unlock()
		}
	}()
	moved := false
	for _, p := range parts {
		ok, err := s.move(p, dest)
		if err != nil {
			return err
		}
		moved = moved || ok
	}
	if moved {
		s.remasters.Add(1)
	}
	if read != nil {
		read()
	}
	return nil
}

// move ships partition p to dest unless it is there already, reporting
// whether it moved. The caller holds p's lock.
func (s *leap) move(p uint64, dest int) (bool, error) {
	src := s.ownerOf(p)
	if src == dest {
		return false, nil
	}
	one := []uint64{p}
	// Request to the source, payload of the moved rows to the destination.
	s.net.Send(transport.CatShipping, transport.MsgOverhead+transport.SizeOfPartitions(one))
	bytes, err := s.c.AddReplica(p, dest)
	if err != nil {
		return false, fmt.Errorf("leap: copy partition %d to site %d: %w", p, dest, err)
	}
	s.net.Send(transport.CatShipping, transport.MsgOverhead+bytes)
	group := s.c.Group()
	epoch, err := group.ShardFor(p).AllocEpoch()
	if err != nil {
		return false, err
	}
	relVV, err := s.sites[src].Release(one, dest, epoch)
	if err != nil {
		return false, fmt.Errorf("leap: release partition %d at site %d: %w", p, src, err)
	}
	if _, err := s.sites[dest].Grant(one, relVV, src, epoch); err != nil {
		return false, fmt.Errorf("leap: grant partition %d at site %d: %w", p, dest, err)
	}
	group.RegisterPartitionEpoch(p, dest, epoch)
	if err := s.c.DropReplica(p, src); err != nil {
		return false, fmt.Errorf("leap: drop partition %d at site %d: %w", p, src, err)
	}
	return true, nil
}

type leapClient struct {
	sys      *leap
	home     int // -1 until the first transaction pins it
	fallback int
}

// site returns the client's home site, pinning it on first use.
func (c *leapClient) site(firstWrite []storage.RowRef) int {
	if c.home < 0 {
		if len(firstWrite) > 0 {
			c.home = c.sys.ownerOf(c.sys.partitioner(firstWrite[0]))
		} else {
			c.home = c.fallback
		}
	}
	return c.home
}

// leapRetries bounds an update's re-localizations: under contention a
// partition can move away between its localization and the transaction's
// begin (ping-pong), and a read can find a partition homed elsewhere.
const leapRetries = 512

// Update localizes the write set to the client's home site, then executes
// there as a plain local transaction. A read of a partition homed elsewhere
// aborts the attempt, and the next one localizes that partition too.
func (c *leapClient) Update(writeSet []storage.RowRef, fn func(systems.Tx) error) error {
	s := c.sys
	home := c.site(writeSet)
	// Owner locations are dynamic; the client consults the locator first.
	s.net.RoundTrip(transport.CatRoute, transport.MsgOverhead+transport.SizeOfRefs(writeSet), transport.MsgOverhead)
	need := s.partsOf(writeSet)
	for attempt := 0; ; attempt++ {
		missing, err := c.update(home, need, writeSet, fn)
		if err == nil && len(missing) == 0 {
			return nil
		}
		if err != nil && !core.Retryable(err) {
			return err
		}
		if attempt >= leapRetries {
			if err == nil {
				err = fmt.Errorf("%d partitions still homed elsewhere", len(missing))
			}
			return fmt.Errorf("leap: update after %d retries: %w", attempt, err)
		}
		need = append(s.partsOf(writeSet), missing...)
	}
}

// update is one attempt of Update: localize need, then run the transaction
// at home. It returns the partitions the transaction read but home does not
// master; the attempt aborted if there are any.
func (c *leapClient) update(home int, need []uint64, writeSet []storage.RowRef, fn func(systems.Tx) error) ([]uint64, error) {
	s := c.sys
	if err := s.localize(home, need, nil); err != nil {
		return nil, err
	}
	site := s.sites[home]
	s.net.Send(transport.CatTxn, transport.MsgOverhead+transport.SizeOfRefs(writeSet))
	tx, err := site.Begin(nil, writeSet)
	if err != nil {
		return nil, err
	}
	adapter := &leapTx{tx: tx, c: c, update: true}
	ferr := fn(adapter)
	site.Exec(tx.Cost)
	if len(adapter.missing) > 0 {
		tx.Abort()
		return adapter.missing, nil
	}
	tvv, err := finish(tx, ferr)
	if err != nil {
		return nil, err
	}
	s.net.Send(transport.CatTxn, transport.MsgOverhead+transport.SizeOfVector(tvv))
	return nil, nil
}

// Read also executes at the home site; reads and scans of non-local
// partitions trigger localization mid-transaction (LEAP has no replicas to
// offload to — its key disadvantage for read-heavy workloads).
func (c *leapClient) Read(hint []storage.RowRef, fn func(systems.Tx) error) error {
	s := c.sys
	site := s.sites[c.site(hint)]
	return retry(func() error {
		s.net.RoundTrip(transport.CatRoute, transport.MsgOverhead, transport.MsgOverhead)
		s.net.Send(transport.CatTxn, transport.MsgOverhead)
		tx, err := site.Begin(nil, nil)
		if err != nil {
			return err
		}
		adapter := &leapTx{tx: tx, c: c}
		ferr := fn(adapter)
		site.Exec(tx.Cost)
		if adapter.err != nil {
			ferr = adapter.err
		}
		if _, err := finish(tx, ferr); err != nil {
			return err
		}
		s.net.Send(transport.CatTxn, transport.MsgOverhead)
		return nil
	})
}

// leapTx localizes data on first touch. A read-only transaction (which holds
// no partition writers) localizes a foreign partition and reads it while
// holding the partition's lock, so no competing localization purges the
// rows in between. An update transaction registers as a writer on its
// write-set partitions at begin, and localizing mid-transaction could
// deadlock with a competing localization waiting for those writers, so it
// records the miss instead and the caller aborts, localizes and retries.
// Reads of partitions already at home go through the transaction's
// snapshot; should the partition move away meanwhile, the read poisons the
// transaction and it is retried.
type leapTx struct {
	tx      *sitemgr.Txn
	c       *leapClient
	update  bool
	err     error
	missing []uint64 // foreign partitions an update transaction touched
}

// localized runs read with parts localized at home (see leap.localize),
// recording a failed localization for the caller.
func (t *leapTx) localized(parts []uint64, read func()) {
	if err := t.c.sys.localize(t.c.home, parts, read); err != nil {
		t.err = err
	}
}

func (t *leapTx) Read(ref storage.RowRef) ([]byte, bool) {
	s := t.c.sys
	if s.staticTables[ref.Table] {
		return t.tx.Read(ref) // static tables are hosted everywhere, never shipped
	}
	p := s.partitioner(ref)
	if s.ownerOf(p) == t.c.home {
		return t.tx.Read(ref)
	}
	if t.update {
		t.missing = append(t.missing, p)
		return nil, false
	}
	var data []byte
	var ok bool
	// The copied rows may postdate the snapshot: read the newest.
	t.localized([]uint64{p}, func() { data, ok = s.sites[t.c.home].ReadLocal(ref) })
	return data, ok
}

// Scan in a read-only transaction reads the newest rows, with every covered
// partition localized and held at home for the scan's duration.
func (t *leapTx) Scan(table string, lo, hi uint64) []storage.KV {
	s := t.c.sys
	if s.staticTables[table] {
		return t.tx.Scan(table, lo, hi)
	}
	parts := s.rangeParts(table, lo, hi)
	if t.update {
		for _, p := range parts {
			if s.ownerOf(p) != t.c.home {
				t.missing = append(t.missing, p)
			}
		}
		if len(t.missing) > 0 {
			return nil
		}
		return t.tx.Scan(table, lo, hi)
	}
	var rows []storage.KV
	t.localized(parts, func() { rows = s.sites[t.c.home].ScanLocal(table, lo, hi) })
	return rows
}

func (t *leapTx) Write(ref storage.RowRef, data []byte) error {
	return t.tx.Write(ref, data)
}
