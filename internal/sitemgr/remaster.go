package sitemgr

import (
	"fmt"

	"dynamast/internal/vclock"
	"dynamast/internal/wal"
)

// Epoch fencing. The selector stamps every remaster chain with a fresh
// monotonic epoch; Release and Grant memoize their results per chain (see
// chainKey) and fence per-partition state with the highest epoch that
// touched it, so:
//
//   - a retried release/grant (lost RPC response, selector retry after a
//     timeout) re-executes as a lookup, never a second state change;
//   - a stale chain (the selector moved the partition again under a higher
//     epoch while this chain's RPC was in flight) is rejected with
//     ErrStaleEpoch instead of clobbering newer ownership.
//
// Epoch 0 is the unfenced legacy mode used by direct Site-to-Site transfers
// in tests and by initial-placement grants, which have no coordinator
// allocating epochs; it performs no memoization and no fencing.

// memoLimit bounds the per-site epoch memo maps; epochs are allocated
// monotonically, so entries far below the newest are dead (their chains
// finished long ago) and are pruned in batches.
const memoLimit = 512

// chainKey identifies one remaster chain: its epoch and its first
// partition. An epoch alone is not enough under a sharded selector, where
// every router shard runs its own allocator and two shards hand out the same
// numbers; but one shard never reuses an epoch, and shards own disjoint
// partitions, so two chains never share both.
type chainKey struct{ epoch, part uint64 }

func keyOf(parts []uint64, epoch uint64) chainKey {
	k := chainKey{epoch: epoch}
	if len(parts) > 0 {
		k.part = parts[0]
	}
	return k
}

// memoize records a chain's result in m, pruning stale epochs when the map
// grows past memoLimit. Caller holds s.remu.
func memoize(m map[chainKey]vclock.Vector, k chainKey, vv vclock.Vector) {
	m[k] = vv
	if len(m) > memoLimit {
		for old := range m {
			if old.epoch+memoLimit/2 < k.epoch {
				delete(m, old)
			}
		}
	}
}

// Release relinquishes this site's mastership of the given partitions and
// returns the release-point vector: the element-wise max of the released
// partitions' write watermarks — everything a grantee must have applied to
// serve the items' freshest committed state. (Returning the watermark
// rather than the full site vector means the grant waits only for updates
// causally relevant to the moved items.)
//
// Per §III-B, the site waits for any ongoing transactions writing the
// partitions to finish before releasing. While the wait is in progress the
// partitions are marked releasing so that no new local update transaction
// can slip in (the stand-alone site selector already prevents this by
// holding the partition locks in exclusive mode, but the site-level guard
// keeps the protocol safe under the distributed-selector design too).
//
// The release is recorded in the site's redo log BEFORE ownership is
// surrendered, so a crash (or append failure) between the two cannot
// strand the partition: either the log carries the release and recovery
// sees the transfer, or ownership was never given up. On append failure
// the partitions simply stay owned and writable.
func (s *Site) Release(parts []uint64, to int, epoch uint64) (vclock.Vector, error) {
	if epoch != 0 {
		s.remu.Lock()
		if vv, ok := s.relMemo[keyOf(parts, epoch)]; ok {
			s.remu.Unlock()
			return vv, nil
		}
		s.remu.Unlock()
	}
	if s.down.Load() {
		return nil, ErrSiteDown
	}
	if epoch != 0 {
		// Advisory early rejection; the authoritative floor check runs
		// under fenceMu below, after the writer drain.
		if floor, fenced := s.fencedEpoch(parts, epoch); fenced {
			return nil, fmt.Errorf("%w: release epoch %d below site %d fence %d", ErrStaleEpoch, epoch, s.id, floor)
		}
	}

	s.pmu.Lock()
	if epoch != 0 {
		for _, id := range parts {
			if p := s.partition(id); p.lastEpoch > epoch {
				last := p.lastEpoch
				s.pmu.Unlock()
				return nil, fmt.Errorf("%w: release epoch %d behind partition %d fence %d", ErrStaleEpoch, epoch, id, last)
			}
		}
	}
	for _, id := range parts {
		s.partition(id).releasing = true
	}
	for !s.writersIdle(parts) {
		if s.down.Load() {
			for _, id := range parts {
				s.parts[id].releasing = false
			}
			s.pcond.Broadcast()
			s.pmu.Unlock()
			return nil, ErrSiteDown
		}
		s.pcond.Wait()
	}
	var relVV vclock.Vector
	for _, id := range parts {
		relVV = relVV.MaxInto(s.parts[id].wm)
	}
	s.pmu.Unlock()

	// The {floor check, append, flip} section runs under the fence read
	// lock: either it completes entirely before a FenceEpochsBelowRange returns
	// (the promotion's WAL fold then sees the release), or it observes the
	// new floor and rejects before touching the log.
	s.fenceMu.RLock()
	if epoch != 0 {
		if floor, fenced := s.fencedEpoch(parts, epoch); fenced {
			s.fenceMu.RUnlock()
			s.pmu.Lock()
			for _, id := range parts {
				s.parts[id].releasing = false
			}
			s.pcond.Broadcast()
			s.pmu.Unlock()
			return nil, fmt.Errorf("%w: release epoch %d below site %d fence %d", ErrStaleEpoch, epoch, s.id, floor)
		}
	}

	// Fence the epoch pipeline: every commit that wrote the released
	// partitions is in the epoch buffer (writers drained above), so sealing
	// now puts their epoch record ahead of the release record in the log —
	// an epoch never spans a release for a partition it contains. A seal
	// failure means the log is dead; the release append below will fail the
	// same way and take the cleanup path.
	if s.epochOn() {
		_ = s.SealEpoch()
	}

	// Durably record the release while the partitions are still guarded by
	// `releasing` (no writer can slip in), then flip ownership.
	_, err := s.log.Append(wal.Entry{
		Kind:       wal.KindRelease,
		Origin:     s.id,
		Partitions: parts,
		Peer:       to,
		Epoch:      epoch,
	})

	s.pmu.Lock()
	for _, id := range parts {
		p := s.parts[id]
		p.releasing = false
		if err == nil && (epoch == 0 || p.lastEpoch <= epoch) {
			p.owned = false
			if epoch > p.lastEpoch {
				p.lastEpoch = epoch
			}
		}
	}
	s.pcond.Broadcast()
	s.pmu.Unlock()
	s.fenceMu.RUnlock()

	if err != nil {
		return nil, err
	}
	if epoch != 0 {
		s.remu.Lock()
		memoize(s.relMemo, keyOf(parts, epoch), relVV)
		s.remu.Unlock()
	}
	return relVV, nil
}

// writersIdle reports whether no in-flight writer holds any of parts.
// Caller holds pmu.
func (s *Site) writersIdle(parts []uint64) bool {
	for _, id := range parts {
		if p := s.parts[id]; p != nil && p.writers > 0 {
			return false
		}
	}
	return true
}

// Grant makes this site the master of the given partitions once it has
// applied the releasing site's updates up to the release point relVV, and
// returns the site's version vector at the time it took ownership — the
// minimum version the remastered transaction must execute at (Algorithm 1).
//
// The grant is logged before ownership becomes visible, mirroring Release:
// recovery never reconstructs less mastership than live transactions could
// have observed.
func (s *Site) Grant(parts []uint64, relVV vclock.Vector, from int, epoch uint64) (vclock.Vector, error) {
	if epoch != 0 {
		s.remu.Lock()
		if vv, ok := s.grantMemo[keyOf(parts, epoch)]; ok {
			s.remu.Unlock()
			return vv, nil
		}
		s.remu.Unlock()
	}
	if s.down.Load() {
		return nil, ErrSiteDown
	}

	// Wait until updates from the releasing site (and everything they
	// depend on) have been applied locally. Waiting for full dominance of
	// relVV is slightly stronger than the per-item requirement and is
	// what guarantees the granted site can serve the freshest committed
	// state of every remastered item.
	s.clock.WaitDominatesEq(relVV)
	if s.down.Load() {
		// Kill interrupts the clock, so the wait above may have returned
		// without its condition holding; never take ownership while down.
		return nil, ErrSiteDown
	}

	s.pmu.Lock()
	if epoch != 0 {
		for _, id := range parts {
			if p := s.partition(id); p.lastEpoch > epoch {
				last := p.lastEpoch
				s.pmu.Unlock()
				return nil, fmt.Errorf("%w: grant epoch %d behind partition %d fence %d", ErrStaleEpoch, epoch, id, last)
			}
		}
	}
	s.pmu.Unlock()

	// As in Release, the {floor check, append, flip} section holds the
	// fence read lock: a grant either lands in the log before a
	// FenceEpochsBelowRange returns, or dies on the floor without logging.
	s.fenceMu.RLock()
	if epoch != 0 {
		if floor, fenced := s.fencedEpoch(parts, epoch); fenced {
			s.fenceMu.RUnlock()
			return nil, fmt.Errorf("%w: grant epoch %d below site %d fence %d", ErrStaleEpoch, epoch, s.id, floor)
		}
	}

	// Mirror Release's fencing: commits buffered before the grant seal into
	// their own epoch record ahead of the grant entry, so epochs never
	// straddle a mastership change in the log.
	if s.epochOn() {
		_ = s.SealEpoch()
	}

	if _, err := s.log.Append(wal.Entry{
		Kind:       wal.KindGrant,
		Origin:     s.id,
		Partitions: parts,
		Peer:       from,
		Epoch:      epoch,
	}); err != nil {
		s.fenceMu.RUnlock()
		return nil, err
	}

	s.pmu.Lock()
	for _, id := range parts {
		p := s.partition(id)
		if epoch != 0 && p.lastEpoch > epoch {
			continue // fenced while the append ran; a newer chain owns this
		}
		p.owned = true
		p.releasing = false
		// The grantee's watermark reflects at least the release point.
		p.wm = p.wm.MaxInto(relVV)
		if epoch > p.lastEpoch {
			p.lastEpoch = epoch
		}
	}
	s.pcond.Broadcast()
	s.pmu.Unlock()
	s.fenceMu.RUnlock()

	now := s.clock.Now()
	if epoch != 0 {
		s.remu.Lock()
		memoize(s.grantMemo, keyOf(parts, epoch), now)
		s.remu.Unlock()
	}
	return now, nil
}
