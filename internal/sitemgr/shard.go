package sitemgr

// Router sharding. The selector control plane can be split into N router
// shards, each owning a contiguous range of the partition-id hash space.
// Shard assignment is a pure function of the partition id (the same
// Fibonacci multiply-shift the selector uses for lock striping), so every
// layer — selector shards, sites fencing a promoted shard's range, tooling —
// computes identical ownership with no shared state.

// fibMix is the 64-bit Fibonacci hashing constant (golden-ratio multiplier).
const fibMix = 0x9E3779B97F4A7C15

// RouterShard maps a partition id to its router shard in [0, n). The
// partition id is mixed to a 32-bit hash and the hash space is cut into n
// contiguous ranges (the fixed-point product hash*n >> 32), so each shard
// owns a contiguous range of the hashed keyspace and any n — not just powers
// of two — divides the map evenly. n <= 1 always maps to shard 0.
func RouterShard(part uint64, n int) int {
	if n <= 1 {
		return 0
	}
	h := (part * fibMix) >> 32 // 32-bit Fibonacci hash
	return int((uint64(n) * h) >> 32)
}

// rangeFence is a remaster-epoch floor scoped to one router shard's
// partition range. Epoch allocators are per shard under the sharded
// selector, so floors from different shards are incomparable and must never
// be applied outside their own range: "one shard's fence dominates only its
// range". An unsharded selector is the one shard {0, 1}, whose range is every
// partition.
type rangeFence struct {
	shard, shards int
	floor         uint64
}

// FenceEpochsBelowRange installs a remaster-epoch fence covering the
// partitions RouterShard assigns to shard-of-shards: subsequent Release or
// Grant operations whose partition set intersects that range and whose
// nonzero epoch is below floor are rejected with ErrStaleEpoch. A promoted
// selector fences every site with a freshly allocated epoch BEFORE folding
// the sites' logs, so a deposed coordinator's in-flight chains can no longer
// change ownership once the fold runs. The fence is range-scoped so that a
// promoted router shard cannot kill in-flight chains of the other,
// still-healthy shards, whose epochs come from different allocators and are
// incomparable. shards <= 1 is the one shard whose range is every partition.
//
// Taking the fence write lock waits out any release/grant already past its
// floor check, whose log append is therefore visible to the fold. The floor
// in effect for the range is returned and only ever rises. Epoch-0
// (unfenced, coordinator-less) operations are unaffected.
//
// The fence is deliberately served even while the site is down: a dead site
// refuses all operations anyway, and keeping the call infallible lets a
// promotion treat "fenced" and "crashed" sites uniformly.
func (s *Site) FenceEpochsBelowRange(floor uint64, shard, shards int) uint64 {
	if shards <= 1 {
		shard, shards = 0, 1
	}
	s.fenceMu.Lock()
	defer s.fenceMu.Unlock()
	var fences []rangeFence
	if old := s.rangeFences.Load(); old != nil {
		fences = append(fences, *old...)
	}
	for i := range fences {
		if fences[i].shard == shard && fences[i].shards == shards {
			if fences[i].floor >= floor {
				return fences[i].floor
			}
			fences[i].floor = floor
			s.rangeFences.Store(&fences)
			return floor
		}
	}
	fences = append(fences, rangeFence{shard: shard, shards: shards, floor: floor})
	s.rangeFences.Store(&fences)
	return floor
}

// fencedEpoch reports whether a release/grant carrying epoch over parts is
// below a fence whose shard range contains at least one of parts; the
// one-shard fence covers every partition set, the empty one included.
// Returns the violated floor. Until a promotion installs a fence this is one
// pointer load.
func (s *Site) fencedEpoch(parts []uint64, epoch uint64) (uint64, bool) {
	fences := s.rangeFences.Load()
	if fences == nil {
		return 0, false
	}
	for _, f := range *fences {
		if epoch >= f.floor {
			continue
		}
		if f.shards == 1 {
			return f.floor, true
		}
		for _, id := range parts {
			if RouterShard(id, f.shards) == f.shard {
				return f.floor, true
			}
		}
	}
	return 0, false
}
