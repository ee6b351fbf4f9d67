package sitemgr

import (
	"errors"
	"sync"

	"dynamast/internal/storage"
	"dynamast/internal/transport"
	"dynamast/internal/vclock"
	"dynamast/internal/wal"
)

// Partial replication: a site hosts only a subset of the partitions.
//
// With Config.PartialReplication set, the site keeps a hosting map (a seed
// membership function plus explicit add/drop overrides) and its refresh
// appliers filter every incoming write set against it. Crucially the site
// clock stays DENSE: an applier advances svv[origin] past entries whose
// writes it filtered out entirely, so svv[o] = n means "this site has
// OBSERVED (installed or deliberately skipped) o's first n commits". All
// Equation 1 dependency waits, CanApplyEpoch gates, freshness waits and
// quiescence checks keep their existing mechanics; soundness comes from
// routing — transactions that read or write a partition never execute at a
// site outside its replica set (Txn.Read poisons with ErrNotHosted and the
// session re-routes).
//
// Hosting flips synchronize with the appliers the same way RestoreSnapshot
// does: HostPartition/UnhostPartition acquire EVERY per-origin apply mutex,
// while appliers evaluate the hosting filter inside their per-entry applyMu
// critical section. Each entry's {filter check, install, clock advance} is
// therefore entirely before or after any flip, which makes the flip vector
// HostPartition returns an exact cut: entries ≤ cut are covered by the
// bootstrap copy, entries > cut by the (now-unfiltered) applier stream —
// no gap and no double-install.

// ErrNotHosted is returned when a transaction reads a partition outside this
// site's replica set. Sessions treat it as retryable and re-route to a
// hosting site.
var ErrNotHosted = errors.New("sitemgr: partition not replicated at this site")

// hostingState is a partially-replicating site's membership map.
type hostingState struct {
	mu        sync.RWMutex
	def       func(part uint64) bool // seed membership (nil = host nothing by default)
	overrides map[uint64]bool        // explicit replica add/drop decisions
}

func (h *hostingState) hostsLocked(part uint64) bool {
	if v, ok := h.overrides[part]; ok {
		return v
	}
	return h.def != nil && h.def(part)
}

// Hosts reports whether this site is in part's replica set. Always true for
// fully replicating sites.
func (s *Site) Hosts(part uint64) bool {
	h := s.hosting
	if h == nil {
		return true
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.hostsLocked(part)
}

// lockAppliers acquires every per-origin apply mutex in index order; hosting
// flips and RestoreSnapshot use it to fence all refresh application.
func (s *Site) lockAppliers() {
	for o := range s.applyMu {
		s.applyMu[o].Lock()
	}
}

func (s *Site) unlockAppliers() {
	for o := range s.applyMu {
		s.applyMu[o].Unlock()
	}
}

// HostPartition adds part to this site's hosting map and returns the flip
// vector: the site clock as of the instant the filter started admitting
// part's writes. Every entry ≤ the flip vector was (or would have been)
// filtered and must come from a bootstrap copy exported at exactly this
// vector; every entry > it is delivered by the appliers. No-op (returning
// nil) on fully replicating sites.
func (s *Site) HostPartition(part uint64) vclock.Vector {
	h := s.hosting
	if h == nil {
		return nil
	}
	s.lockAppliers()
	h.mu.Lock()
	h.overrides[part] = true
	cut := s.clock.Now()
	h.mu.Unlock()
	s.unlockAppliers()
	return cut
}

// UnhostPartition removes part from the hosting map and purges its resident
// rows, returning how many were dropped. The flag flip and the purge happen
// under the hosting write lock (excluding Txn.Read's check-and-read) and
// with every applier fenced, so no reader observes a half-purged partition
// as silently missing rows and no in-flight refresh installs into it after
// the purge. Callers must not unhost a partition this site masters.
func (s *Site) UnhostPartition(part uint64) int {
	h := s.hosting
	if h == nil {
		return 0
	}
	s.lockAppliers()
	h.mu.Lock()
	h.overrides[part] = false
	purged := s.store.PurgeMatching(func(ref storage.RowRef) bool {
		return s.cfg.Partitioner(ref) == part
	})
	h.mu.Unlock()
	s.unlockAppliers()
	return purged
}

// AdoptHosting installs explicit hosting overrides for the given partitions
// (recovery folding a checkpoint manifest's membership). Other partitions
// keep the seed membership.
func (s *Site) AdoptHosting(hosted map[uint64]bool) {
	h := s.hosting
	if h == nil {
		return
	}
	s.lockAppliers()
	h.mu.Lock()
	for p, v := range hosted {
		h.overrides[p] = v
	}
	h.mu.Unlock()
	s.unlockAppliers()
}

// filterHosted returns the subset of writes that target hosted partitions.
// The input slice (borrowed from a log entry) is never mutated; when every
// write is hosted it is returned as-is. Callers hold the origin's apply
// mutex, which orders the hosting decision against flips.
func (s *Site) filterHosted(writes []storage.Write) []storage.Write {
	h := s.hosting
	h.mu.RLock()
	defer h.mu.RUnlock()
	keep := 0
	for i := range writes {
		if h.hostsLocked(s.cfg.Partitioner(writes[i].Ref)) {
			keep++
		}
	}
	if keep == len(writes) {
		return writes
	}
	if keep == 0 {
		return nil
	}
	out := make([]storage.Write, 0, keep)
	for i := range writes {
		if h.hostsLocked(s.cfg.Partitioner(writes[i].Ref)) {
			out = append(out, writes[i])
		}
	}
	return out
}

// ResidentPartitions counts the distinct partitions with at least one live
// row in this site's store. O(rows); used by the residency gauge and the
// partial-replication experiments.
func (s *Site) ResidentPartitions() int {
	seen := make(map[uint64]struct{})
	for _, name := range s.store.TableNames() {
		t := s.store.Table(name)
		if t == nil {
			continue
		}
		t.ForEachLatest(func(key uint64, _ []byte, _ storage.Stamp) {
			seen[s.cfg.Partitioner(storage.RowRef{Table: name, Key: key})] = struct{}{}
		})
	}
	return len(seen)
}

// BootstrapPartitionFrom copies part's rows from src as they stood at cut
// (the flip vector this site's HostPartition returned). The caller must have
// waited until src's clock dominates cut. Each row installs under the
// superseding guard, judged against cut: a row this site already holds a
// version of got it from the appliers after the flip — an entry > cut, newer
// than the copy — so the copy is skipped. (Judging against src's current
// clock instead would bury such a row under the older copy.) src's bounded
// version chains can also export a version NEWER than cut (see
// storage.ExportAt), but that version's own log entry is > cut and the
// applier stream re-delivers it, so skipping is always safe. Returns the rows
// copied and their encoded size, which is charged to the replication
// category.
func (s *Site) BootstrapPartitionFrom(src *Site, part uint64, cut vclock.Vector) (rows, bytes int) {
	inPart := func(table string, key uint64) bool {
		return s.cfg.Partitioner(storage.RowRef{Table: table, Key: key}) == part
	}
	src.store.ExportAt(cut, inPart, func(table string, key uint64, data []byte, stamp storage.Stamp) bool {
		if s.store.ImportRowSuperseding(table, key, data, stamp, cut) {
			rows++
			bytes += 10 + 3 + len(data) // refOverhead + flags, as SizeOfWrites prices a row
		}
		return true
	})
	if rows > 0 {
		s.net.Account(transport.CatReplication, transport.MsgOverhead+bytes)
	}
	return rows, bytes
}

// RebuildPartitionFromLogs reconstructs part's rows from every origin's
// retained log — the last-resort bootstrap source when no live replica of
// part survived a failure. Only entries at or below cut are folded (newer
// ones arrive through the appliers); among a row's candidate writes the one
// with the dominating transaction vector wins (writes to a row serialize
// through its masters, so their tvvs are comparable). Rows whose only writes
// predate the retained log prefix (checkpoint truncation) cannot be rebuilt
// — run with MinReplicas >= 2 to keep a live source through single failures.
//
// This is a fold, not a Replay: the target is a live site whose clock
// already covers every entry, so applyEntry would skip them all. It walks
// each entry's members the same way (see members).
func (s *Site) RebuildPartitionFromLogs(part uint64, cut vclock.Vector) int {
	type cand struct {
		data    []byte
		stamp   storage.Stamp
		tvv     vclock.Vector
		deleted bool
	}
	best := make(map[storage.RowRef]cand)
	for origin := 0; origin < s.m; origin++ {
		cur := s.cfg.Broker.Log(origin).Subscribe(0)
		for e, ok := cur.TryNext(); ok; e, ok = cur.TryNext() {
			var one [1]wal.EpochTxn
			first, txns := members(&e, &one)
			for j := range txns {
				seq := first + uint64(j)
				if origin < len(cut) && seq > cut[origin] {
					break
				}
				for _, w := range txns[j].Writes {
					if s.cfg.Partitioner(w.Ref) != part {
						continue
					}
					c := cand{data: w.Data, stamp: storage.Stamp{Origin: origin, Seq: seq}, tvv: txns[j].TVV, deleted: w.Deleted}
					if b, ok := best[w.Ref]; ok && !c.tvv.DominatesEq(b.tvv) {
						continue
					}
					best[w.Ref] = c
				}
			}
		}
		cur.Close()
	}
	installed := 0
	for ref, c := range best {
		if c.deleted {
			continue // absent row ≡ tombstone to readers
		}
		if s.store.ImportRowSuperseding(ref.Table, ref.Key, c.data, c.stamp, cut) {
			installed++
		}
	}
	return installed
}
