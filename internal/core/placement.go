package core

import (
	"fmt"
	"sync"

	"dynamast/internal/obs"
	"dynamast/internal/selector"
	"dynamast/internal/sitemgr"
)

// Replica placement: the cluster is the selector placement layer's
// ReplicaMover — it materializes replica-set decisions at the data sites.
// AddReplica follows the add protocol documented in sitemgr/hosting.go:
// flip the hosting filter first (capturing the exact cut vector), then copy
// the partition's rows as of the cut from a live replica, so the bootstrap
// copy and the (now-unfiltered) applier stream meet with no gap and no
// double-install. DropReplica removes routing metadata first — reads stop
// landing on the site before its rows purge.
//
// Moves of one partition serialize on its placeLock stripe: the controller,
// routing's ensure hook, failover's heir materialization and the LEAP
// baseline's localizations never interleave two moves of the same
// partition, while moves of other partitions proceed in parallel.

// placeLock returns the mutex serializing moves of part.
func (c *Cluster) placeLock(part uint64) *sync.Mutex {
	return &c.placeMu[part%uint64(len(c.placeMu))]
}

// AddReplica makes site a hosting replica of part, bootstrapping its rows
// from a live replica (or, when none survived, from the retained logs), and
// returns the encoded size of the rows copied from the live replica (0 when
// site already hosted part or the logs rebuilt it). Idempotent; implements
// selector.ReplicaMover.
func (c *Cluster) AddReplica(part uint64, site int) (int, error) {
	if site < 0 || site >= len(c.sites) {
		return 0, fmt.Errorf("core: add replica: no such site %d", site)
	}
	mu := c.placeLock(part)
	mu.Lock()
	defer mu.Unlock()
	sel := c.group.ShardFor(part) // replica-set metadata lives on the owning shard
	if !sel.PartialPlacement() {
		return 0, nil
	}
	tgt := c.sites[site]
	if !tgt.Alive() {
		return 0, fmt.Errorf("core: add replica of partition %d: site %d: %w",
			part, site, sitemgr.ErrSiteDown)
	}
	if tgt.Hosts(part) {
		sel.AddReplicaMeta(part, site, "already hosted")
		return 0, nil
	}
	cut := tgt.HostPartition(part)

	// Any live site already hosting part serves as the bootstrap source:
	// once its clock dominates the cut it holds every version visible there.
	// The master is preferred and needs no wait: it holds every committed
	// write to part already — its own, and every earlier master's through
	// its grant's wait on the release vector. (A write by a later master
	// is > cut, so the appliers deliver it.)
	src, master := -1, false
	for _, m := range sel.ReplicaSet(part) {
		if m == site || m < 0 || m >= len(c.sites) || !c.sites[m].Alive() || !c.sites[m].Hosts(part) {
			continue
		}
		if c.sites[m].Masters(part) {
			src, master = m, true
			break
		}
		if src < 0 {
			src = m
		}
	}
	rows, bytes := 0, 0
	from := "logs"
	if src >= 0 {
		srcSite := c.sites[src]
		if !master {
			srcSite.Clock().WaitDominatesEq(cut)
		}
		// The wait returns unconditionally if the source dies mid-wait;
		// re-check before trusting its export.
		if srcSite.Alive() {
			rows, bytes = tgt.BootstrapPartitionFrom(srcSite, part, cut)
			from = fmt.Sprintf("site %d", src)
		} else {
			src = -1
		}
	}
	if src < 0 {
		rows = tgt.RebuildPartitionFromLogs(part, cut)
	}
	sel.AddReplicaMeta(part, site, fmt.Sprintf("bootstrap %d rows from %s", rows, from))
	obs.RecordEvent(obs.FlightPlacement, site,
		"partition %d: replica added (%d rows from %s)", part, rows, from)
	return bytes, nil
}

// DropReplica removes site from part's replica set and purges its resident
// rows. Refuses to drop the partition's master or shrink the set below the
// configured minimum. Implements selector.ReplicaMover.
func (c *Cluster) DropReplica(part uint64, site int) error {
	if site < 0 || site >= len(c.sites) {
		return fmt.Errorf("core: drop replica: no such site %d", site)
	}
	mu := c.placeLock(part)
	mu.Lock()
	defer mu.Unlock()
	sel := c.group.ShardFor(part)
	if !sel.PartialPlacement() {
		return nil
	}
	tgt := c.sites[site]
	// The site-level mastership flag is authoritative: a remaster chain that
	// just granted here may not have flipped selector metadata yet.
	if tgt.Masters(part) {
		return fmt.Errorf("core: drop replica: site %d masters partition %d", site, part)
	}
	// Metadata first: reads stop routing at this site before its rows go.
	if !sel.DropReplicaMeta(part, site, "policy drop") {
		return fmt.Errorf("core: drop replica: partition %d 's set at site %d is at minimum", part, site)
	}
	purged := 0
	if tgt.Alive() {
		purged = tgt.UnhostPartition(part)
	}
	obs.RecordEvent(obs.FlightPlacement, site,
		"partition %d: replica dropped (%d rows purged)", part, purged)
	return nil
}

// hostedIn reports whether site appears in a replica-set slice.
func hostedIn(set []int, site int) bool {
	for _, m := range set {
		if m == site {
			return true
		}
	}
	return false
}

// ensureHostedAll makes site a hosting replica of every partition in parts
// (routing's add-then-grant hook and failover's heir materialization).
func (c *Cluster) ensureHostedAll(parts []uint64, site int) error {
	for _, part := range parts {
		if _, err := c.AddReplica(part, site); err != nil {
			return err
		}
	}
	return nil
}

// Placement snapshots the cluster's replica placement: per-partition replica
// sets and masters, per-site residency, and the recent add/drop decision
// log. Under full replication only the masters and residency are populated.
func (c *Cluster) Placement() selector.PlacementInfo {
	info := c.group.PlacementInfo()
	info.Residency = make([]int, len(c.sites))
	for i, s := range c.sites {
		if s.Alive() {
			info.Residency[i] = s.ResidentPartitions()
		}
	}
	return info
}
