package core

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"dynamast/internal/obs"
	"dynamast/internal/selector"
	"dynamast/internal/sitemgr"
	"dynamast/internal/transport"
	"dynamast/internal/vclock"
)

// Site failure handling (§V-C). Every DynaMast site is a full replica, so a
// site failure loses no data: the failed site's durable update log survives
// in the broker, survivors keep applying it, and mastership of the failed
// site's partitions is reconstructed and re-granted to survivors. The
// cluster detects failures with a selector-side heartbeat over the control
// plane; in-flight transactions at the failed site abort with the retryable
// ErrSiteDown and sessions re-route after failover updates the selector.

// FailureDetectionConfig tunes the heartbeat-based failure detector. The
// zero value disables detection (no background goroutine); KillSite and
// Failover still work when driven manually.
type FailureDetectionConfig struct {
	// Interval between heartbeat probes per site.
	Interval time.Duration
	// Misses is how many consecutive failed probes declare the site down
	// (0 = default 3).
	Misses int
}

// Retryable reports whether a session-level error is transient: the
// transaction did not commit and re-submitting it (the selector will route
// around the failure) can succeed. Fatal errors — schema violations,
// application errors — are not retryable.
func Retryable(err error) bool {
	return errors.Is(err, sitemgr.ErrSiteDown) ||
		errors.Is(err, sitemgr.ErrNotMaster) ||
		errors.Is(err, sitemgr.ErrNotHosted) ||
		errors.Is(err, sitemgr.ErrSnapshotTooOld) ||
		errors.Is(err, sitemgr.ErrReleasing) ||
		errors.Is(err, selector.ErrNoLeader) ||
		transport.IsInjected(err)
}

// heartbeatLoop probes every site each interval and declares a site down
// after `misses` consecutive failed probes. A probe fails when the control
// wire drops it (injected fault or partition) or the site is dead. Runs
// until the cluster closes.
func (c *Cluster) heartbeatLoop(interval time.Duration, misses int) {
	defer c.hbWG.Done()
	missed := make([]int, len(c.sites))
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.hbStop:
			return
		case <-ticker.C:
		}
		for i, s := range c.sites {
			if c.group.SiteDown(i) {
				// A site can be marked down with its failover incomplete
				// (a grant leg failed mid-way); keep retrying until every
				// orphaned partition has a live master — an abandoned
				// partial failover would leave those partitions mastered
				// at the dead site forever.
				if !c.FailedOver(i) {
					_ = c.Failover(i) // errors retried next tick
				}
				continue
			}
			// Probe: request + response on the control plane. Either leg
			// lost counts as a miss; a dead site never answers.
			err := c.net.SendTo(transport.CatControl, transport.SelectorNode, i, transport.MsgOverhead)
			if err == nil && s.Alive() {
				err = c.net.SendTo(transport.CatControl, i, transport.SelectorNode, transport.MsgOverhead)
			} else if err == nil {
				err = sitemgr.ErrSiteDown
			}
			if err == nil {
				missed[i] = 0
				continue
			}
			missed[i]++
			if missed[i] >= misses {
				c.Failover(i)
			}
		}
	}
}

// KillSite simulates a crash of site i: the site fails every subsequent
// operation with ErrSiteDown and wakes anything blocked on it. With failure
// detection configured the selector notices via missed heartbeats and runs
// Failover; otherwise call Failover directly.
func (c *Cluster) KillSite(i int) {
	c.sites[i].Kill()
}

// Failovers returns how many site failovers the cluster has executed.
func (c *Cluster) Failovers() uint64 { return c.failovers.Load() }

// FailedOver reports whether site i's failover has fully completed (every
// orphaned partition re-granted to a live survivor).
func (c *Cluster) FailedOver(i int) bool {
	c.failoverMu.Lock()
	defer c.failoverMu.Unlock()
	return c.failedOver[i]
}

// Faults returns the cluster's fault injector, nil when none is configured.
func (c *Cluster) Faults() *transport.Injector { return c.net.Injector() }

// Failover marks site `dead` failed and re-masters every partition it owned
// onto the survivors (§V-C). Idempotent per site. The steps:
//
//  1. The selector marks the site down: no new reads, writes or remaster
//     destinations go there.
//  2. The set of partitions to move is the union of the selector's live map
//     and the mastership rebuilt from the last checkpoint and the surviving
//     redo logs past it (authoritative across selector restarts; the live
//     map catches grants whose log entries raced the crash).
//  3. Each partition batch is granted to a survivor under a fresh epoch,
//     fencing out any release/grant chains in flight at the crash. The
//     release vector pins the dead site's dimension at its last published
//     update: survivors serve the partitions only after applying everything
//     the dead site made durable — no committed write is lost (every site
//     replicates, so the data is already on its way via the refresh
//     appliers reading the dead site's surviving log).
//  4. The selector's partition map is updated per batch, re-routing new
//     transactions; in-flight ones at the dead site abort retryably.
func (c *Cluster) Failover(dead int) error {
	c.failoverMu.Lock()
	defer c.failoverMu.Unlock()
	// Mark the site down on every router shard before the idempotence
	// check: a selector promotion replays down flags from its predecessor,
	// but a flag raced past a leadership swap must be re-installable on the
	// new leader even after this site's failover already completed.
	c.group.MarkDown(dead)
	if c.failedOver[dead] {
		return nil
	}
	c.sites[dead].Kill() // ensure it stops serving even if only partitioned

	survivors := make([]int, 0, len(c.sites)-1)
	for i := range c.sites {
		if i != dead && !c.group.SiteDown(i) {
			survivors = append(survivors, i)
		}
	}
	if len(survivors) == 0 {
		return fmt.Errorf("core: failover of site %d: no surviving sites", dead)
	}

	// Union of selector metadata and log-reconstructed mastership. A fold
	// that lost the race with two checkpoints' truncation fails the
	// failover; the heartbeat loop retries it on the newer base.
	fold, err := sitemgr.FoldMastership(c.broker, c.foldBase())
	if err != nil {
		return fmt.Errorf("core: failover of site %d: %w", dead, err)
	}
	owned := make(map[uint64]struct{})
	for _, p := range c.group.MasteredBy(dead) {
		owned[p] = struct{}{}
	}
	for p, site := range fold.Owner {
		if site == dead {
			owned[p] = struct{}{}
		}
	}
	parts := make([]uint64, 0, len(owned))
	for p := range owned {
		parts = append(parts, p)
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i] < parts[j] })

	// Survivors must catch up to everything the dead site published before
	// serving its partitions.
	relVV := vclock.New(len(c.sites))
	relVV[dead] = c.broker.Log(dead).LastUpdateSeq()

	// Re-grant shard by shard: each batch's fencing epoch comes from the
	// owning router shard's allocator (per-shard epochs are incomparable,
	// so a batch never mixes partitions of two shards), and each shard's
	// registrations land on that shard's map. With one shard this is the
	// original whole-cluster scatter unchanged.
	var firstErr error
	for si := 0; si < c.group.Shards(); si++ {
		shardParts := parts
		if c.group.Shards() > 1 {
			shardParts = shardParts[:0:0]
			for _, p := range parts {
				if c.group.ShardOf(p) == si {
					shardParts = append(shardParts, p)
				}
			}
		}
		if len(shardParts) == 0 {
			continue
		}
		if err := c.failoverShard(si, dead, shardParts, survivors, relVV); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	// The dead site serves no replicas; shed it from every replica set (the
	// placement controller restores the factor on live sites over later
	// ticks). Metadata only — there is nothing to purge at a dead site.
	if dropped := c.group.DropSiteReplicas(dead); len(dropped) > 0 {
		obs.RecordEvent(obs.FlightPlacement, dead,
			"site %d shed from %d replica set(s) after failover", dead, len(dropped))
	}
	c.failedOver[dead] = true
	c.failovers.Add(1)
	c.obFailovers.Inc()
	obs.RecordEvent(obs.FlightFailover, dead,
		"site %d failed over: %d partition(s) re-mastered across %d survivor(s)",
		dead, len(parts), len(survivors))
	if _, err := obs.SnapshotFlight("failover"); err != nil {
		fmt.Fprintf(os.Stderr, "core: flight snapshot after failover: %v\n", err)
	}
	return nil
}

// failoverShard re-grants one router shard's slice of a dead site's
// partitions across the survivors. Scatter is round-robin, one grant batch
// per survivor. A batch whose preferred heir cannot take the grant (it
// died since the survivor scan, or its log append failed) falls back to
// the next survivor rather than failing the batch; a batch no survivor
// accepts leaves failedOver unset, and the heartbeat loop retries the
// failover — granted batches are already registered, so the retry covers
// only the remainder.
func (c *Cluster) failoverShard(si, dead int, parts []uint64, survivors []int, relVV vclock.Vector) error {
	sel := c.group.Shard(si)
	batches := make([][]uint64, len(survivors))
	for i, p := range parts {
		batches[i%len(survivors)] = append(batches[i%len(survivors)], p)
	}
	var firstErr error
	for bi, ids := range batches {
		if len(ids) == 0 {
			continue
		}
		granted := false
		var lastErr error
		for off := 0; off < len(survivors) && !granted; off++ {
			heir := survivors[(bi+off)%len(survivors)]
			if sel.SiteDown(heir) {
				continue
			}
			epoch, err := sel.AllocEpoch()
			if err != nil {
				// The shard lost its lease mid-failover (leadership handover
				// in flight). Leave the batch for the heartbeat retry, which
				// re-runs under the promoted leader.
				lastErr = fmt.Errorf("core: failover of site %d: %w", dead, err)
				break
			}
			// Partial replication: the heir must host a partition before
			// mastering it. Live replicas bootstrap the copy; when none of a
			// partition's replicas survived, the heir rebuilds from the
			// retained logs (see AddReplica).
			if err := c.ensureHostedAll(ids, heir); err != nil {
				lastErr = fmt.Errorf("core: failover replica add at site %d: %w", heir, err)
				continue
			}
			if _, err := c.sites[heir].Grant(ids, relVV, dead, epoch); err != nil {
				lastErr = fmt.Errorf("core: failover grant to site %d: %w", heir, err)
				continue
			}
			if c.afterFailoverGrant != nil {
				c.afterFailoverGrant()
			}
			// Registration flips the shard's hints, so the front's local
			// route stops pointing at the dead site before any write
			// bounces off it.
			for _, p := range ids {
				sel.RegisterPartitionEpoch(p, heir, epoch)
			}
			granted = true
		}
		if !granted && firstErr == nil {
			if lastErr == nil {
				lastErr = fmt.Errorf("core: failover of site %d: no live heir", dead)
			}
			firstErr = lastErr
		}
	}
	return firstErr
}
