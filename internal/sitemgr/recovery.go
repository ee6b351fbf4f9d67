package sitemgr

import (
	"errors"
	"fmt"

	"dynamast/internal/vclock"
	"dynamast/internal/wal"
)

// Recovery (§V-C). DynaMast uses redo logging: on commit the write set is
// appended to the site's durable log, which doubles as the replication
// feed. A data site recovers by restoring its newest checkpoint and replaying
// the redo logs from the positions that checkpoint records; mastership state
// is reconstructed from the sequence of release and grant operations in the
// logs.

// Replay brings the site to the end of every origin's log, reading origin
// o's log from offsets[o] (a checkpoint manifest's replay positions; nil =
// the whole retained logs). It is the paper's redo recovery: one merge of
// all M logs in dependency order, each entry installed through applyEntry
// once the update application rule admits it (Equation 1; CanApplyEpoch for
// a sealed epoch, of which a single update is the one-member case). The
// site's own log is one of the M and gets no special case: installing it
// ahead of the peers' logs would stack the older version of a remastered
// key over the newer one its new master wrote.
//
// Replay needs no background applier: it keeps one cursor per origin,
// reads each entry once, and sweeps the cursors until every one is at the
// end its log had when Replay started. A started site's appliers may claim
// part of the same suffix concurrently; applyMu and applyEntry's coverage
// check make that harmless. A sweep that installs nothing while entries
// remain, against a clock nothing else has moved, means some entry depends
// on a write no retained log holds, and Replay returns an error naming it
// rather than waiting. own and peers count the members Replay itself
// installed from this site's log and from the others'.
func (s *Site) Replay(offsets []uint64) (own, peers uint64, err error) {
	heads := make([]replayCursor, s.m)
	for o := range heads {
		var from uint64
		if o < len(offsets) {
			from = offsets[o]
		}
		log := s.cfg.Broker.Log(o)
		heads[o] = replayCursor{cur: log.Subscribe(from), end: log.Len()}
		defer heads[o].cur.Close()
	}
	// svv is the clock as Replay has moved it. The appliers move the clock
	// too, so a sweep that stalls against svv retries against a fresh copy
	// before it gives up.
	svv := s.clock.Now()
	for {
		progressed, stalled := false, -1
		for o := range heads {
			h := &heads[o]
			for e := h.peek(); e != nil; e = h.pop() {
				if e.IsUpdate() {
					if e.TVV[o] > s.clock.Get(o) {
						if !vclock.CanApplyEpoch(svv, e.TVV, o, e.FirstSeq()) {
							break
						}
						n, _ := s.applyEntry(o, e, nil)
						if o == s.id {
							own += uint64(n)
						} else {
							peers += uint64(n)
						}
					}
					svv[o] = max(svv[o], e.TVV[o])
				}
				progressed = true
			}
			if h.peek() != nil && stalled < 0 {
				stalled = o
			}
		}
		if stalled < 0 {
			return own, peers, nil
		}
		if !progressed {
			now := s.clock.Now()
			if now.Equal(svv) {
				return own, peers, s.unordered(stalled, heads[stalled].peek())
			}
			svv = now
		}
	}
}

// replayCursor is Replay's position in one origin's log: a batch of
// entries read ahead and the log's end when Replay started, short of which
// reading never blocks.
type replayCursor struct {
	cur  *wal.Cursor
	end  uint64
	buf  []wal.Entry
	next int
}

// peek returns the next unconsumed entry, or nil at the end.
func (c *replayCursor) peek() *wal.Entry {
	if c.next == len(c.buf) {
		if c.cur.Offset() >= c.end {
			return nil
		}
		c.buf, _ = c.cur.NextBatch(c.buf[:0], maxRefreshBatch)
		c.next = 0
		if len(c.buf) == 0 {
			return nil // the log closed under Replay
		}
	}
	return &c.buf[c.next]
}

// pop consumes the entry peek returned and returns the one after it.
func (c *replayCursor) pop() *wal.Entry {
	c.next++
	return c.peek()
}

// unordered reports an entry of origin's log that no remaining log entry
// can make applicable: its first member's sequence and the first clause of
// the application rule the site clock fails.
func (s *Site) unordered(origin int, e *wal.Entry) error {
	svv, first := s.clock.Now(), e.FirstSeq()
	dim, need := origin, first-1
	for k, want := range e.TVV {
		if k != origin && svv[k] < want {
			dim, need = k, want
			break
		}
	}
	return fmt.Errorf("sitemgr: site %d replay cannot order origin %d seq %d: it needs svv[%d] >= %d, replay reached %d",
		s.id, origin, first, dim, need, svv[dim])
}

// FoldBase is the mastership state a fold starts from: a committed
// checkpoint's placement (owner and install epoch per partition) and the
// per-site log offsets its capture began folding at. The zero base folds
// the whole logs over nothing.
type FoldBase struct {
	Owner map[uint64]int
	Epoch map[uint64]uint64
	From  []uint64
}

// ErrFoldBaseTruncated reports that checkpoint truncation reclaimed part of
// a log below the base's fold offset while the fold was starting: the
// records in the gap are covered only by a newer base. Retry on it.
var ErrFoldBaseTruncated = errors.New("sitemgr: mastership fold base is behind a truncated log prefix")

// MastershipFold is the outcome of folding the sites' release/grant log
// records over a base: the reconstructed owner and the epoch that installed
// it per partition, plus the transfers that were cut in half by a
// coordinator crash (release logged, grant never executed).
type MastershipFold struct {
	// Owner is the master of every partition the base places or a folded
	// grant names. Partitions with neither are absent: callers fall back
	// to their initial placement.
	Owner map[uint64]int
	// Epoch is the epoch that installed Owner (0 for an unfenced grant).
	Epoch map[uint64]uint64
	// Dangling maps partitions whose highest-epoch operation is a RELEASE
	// to the releasing site: the grant leg of that transfer never executed
	// anywhere, so the releasing site — which still holds the data and the
	// freshest applied state — has surrendered ownership into the void. A
	// promoted selector repairs these by re-granting to the releaser under
	// a fresh epoch.
	Dangling map[uint64]int
	// MaxEpoch is the highest epoch in the base or any folded record; a
	// recovered or promoted coordinator's allocator must start above it.
	MaxEpoch uint64
}

// FoldMastership rebuilds partition ownership from one source: the base
// overlaid with the release/grant records of every site's log from
// base.From[i]. Recovery, selector promotion and site failover all call it
// with the last committed checkpoint as the base; its capture is atomic
// against moves and truncation never cuts below its fold offsets, so the
// base and the folded suffix cover every grant ever logged. A fold grant
// replaces a base entry only under a strictly higher epoch: sites fence
// stale-epoch remaster operations, so every grant after the capture
// satisfies this, while a replayed copy of the grant that installed the
// base entry does not flap it.
//
// Each log's cursor pins its truncation floor once subscribed, but the
// base may be stale by then: two checkpoints committing between the
// caller's read of the base and the subscription can truncate past it.
// The fold then returns ErrFoldBaseTruncated instead of silently folding a
// shorter suffix.
//
// Logs are per-site FIFO; a partition is granted to site g only after g's
// predecessor released it, so for each partition the grant entries across
// logs form a chain whose tail is normally the unique grant not followed by
// a release of the same partition in the same site's log. A site failover
// breaks that uniqueness — the dead site's log still ends in a grant
// because it never released — so when several sites end in granted state
// the remaster epoch arbitrates: the failover (or any later transfer) ran
// under a strictly higher epoch than every earlier grant. Ties break by
// site order, so the fold is deterministic.
func FoldMastership(b *wal.Broker, base FoldBase) (MastershipFold, error) {
	f := MastershipFold{
		Owner:    make(map[uint64]int, len(base.Owner)),
		Epoch:    make(map[uint64]uint64, len(base.Owner)),
		Dangling: make(map[uint64]int),
	}
	for p, site := range base.Owner {
		f.Owner[p], f.Epoch[p] = site, base.Epoch[p]
		f.MaxEpoch = max(f.MaxEpoch, base.Epoch[p])
	}
	type lastOp struct {
		granted bool
		epoch   uint64
	}
	state := make(map[uint64]map[int]lastOp) // partition -> site -> last op
	for i := 0; i < b.Sites(); i++ {
		var off uint64
		if i < len(base.From) {
			off = base.From[i]
		}
		cur := b.Log(i).Subscribe(off)
		if b.Log(i).Base() > off {
			cur.Close()
			return MastershipFold{}, fmt.Errorf("%w: site %d log starts at %d, base folds from %d",
				ErrFoldBaseTruncated, i, b.Log(i).Base(), off)
		}
		for e, ok := cur.TryNext(); ok; e, ok = cur.TryNext() {
			if e.Kind != wal.KindGrant && e.Kind != wal.KindRelease {
				continue
			}
			f.MaxEpoch = max(f.MaxEpoch, e.Epoch)
			for _, p := range e.Partitions {
				m := state[p]
				if m == nil {
					m = make(map[int]lastOp)
					state[p] = m
				}
				m[i] = lastOp{granted: e.Kind == wal.KindGrant, epoch: e.Epoch}
			}
		}
		cur.Close()
	}
	for p, sites := range state {
		best, bestEpoch := -1, uint64(0)
		relSite, relEpoch, released := -1, uint64(0), false
		for site := 0; site < b.Sites(); site++ {
			op, ok := sites[site]
			if !ok {
				continue
			}
			if op.granted {
				if best < 0 || op.epoch > bestEpoch {
					best, bestEpoch = site, op.epoch
				}
			} else if !released || op.epoch > relEpoch {
				relSite, relEpoch, released = site, op.epoch, true
			}
		}
		if placed, inBase := f.Epoch[p]; best >= 0 && (!inBase || bestEpoch > placed) {
			f.Owner[p], f.Epoch[p] = best, bestEpoch
		}
		// A release strictly out-epoching the winning install (or with no
		// owner at all) is a transfer whose grant leg is missing from every
		// log.
		if owned, ok := f.Epoch[p]; released && (!ok || relEpoch > owned) {
			f.Dangling[p] = relSite
		}
	}
	return f, nil
}

// AdoptMastership installs an ownership map (produced by FoldMastership)
// into this site.
func (s *Site) AdoptMastership(owner map[uint64]int) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	for p, site := range owner {
		st := s.partition(p)
		st.owned = site == s.id
		st.releasing = false
	}
	s.pcond.Broadcast()
}
