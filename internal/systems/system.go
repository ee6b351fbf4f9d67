// Package systems defines the interface types every evaluated database
// architecture implements — DynaMast and the four comparators
// (single-master, multi-master, partition-store, LEAP) — so workloads and
// the benchmark harness are system-agnostic. Every one of them is a
// configuration of core.Cluster, mirroring the paper's methodology of
// implementing every alternative design within the DynaMast framework
// (§VI-A1); the comparators' routing rules live in internal/bench.
package systems

import (
	"dynamast/internal/storage"
	"dynamast/internal/transport"
)

// Tx is the transaction handle a workload's stored procedure runs against.
// Reads and scans observe a snapshot consistent with the system's isolation
// level (strong-session snapshot isolation everywhere); writes must stay
// within the write set declared when the transaction was submitted.
type Tx interface {
	// Read returns a row's value, or ok=false if it does not exist.
	Read(ref storage.RowRef) ([]byte, bool)
	// Scan returns the visible rows of table with lo <= key < hi. The rows
	// are a cursor over storage the transaction may own: they are valid
	// until the transaction commits or aborts (so for the whole of the
	// stored procedure, across any further scans) and not afterwards. Copy
	// what must outlive it.
	Scan(table string, lo, hi uint64) []storage.KV
	// Write buffers an update to ref.
	Write(ref storage.RowRef, data []byte) error
}

// Client is one workload client's session against a system. Sessions are
// sticky: the system enforces strong-session snapshot isolation across a
// client's transactions. A Client is used by one goroutine at a time.
type Client interface {
	// Update executes fn as an update transaction whose write set is
	// writeSet, at a site of the system's choosing, and commits it.
	Update(writeSet []storage.RowRef, fn func(Tx) error) error
	// Read executes fn as a read-only transaction. hint optionally names
	// rows the transaction will read (reconnaissance, like the declared
	// write set); systems without replicas use it to execute the
	// transaction at the data's owner.
	Read(hint []storage.RowRef, fn func(Tx) error) error
}

// LoadRow is one initial-data row.
type LoadRow struct {
	Ref  storage.RowRef
	Data []byte
}

// Stats is a snapshot of system-level counters the experiments report.
type Stats struct {
	// Commits is the number of committed update transactions system-wide.
	Commits uint64
	// Remasters counts transactions that required mastership transfer
	// (DynaMast) or data shipping (LEAP).
	Remasters uint64
	// Distributed counts transactions that ran a distributed commit
	// protocol (partition-store, multi-master).
	Distributed uint64
	// PerSiteCommits break down commits by executing site.
	PerSiteCommits []uint64
	// Network is the per-category traffic snapshot.
	Network []transport.CategoryStats
}

// System is one evaluated database architecture.
type System interface {
	// Name identifies the system in experiment output.
	Name() string
	// CreateTable declares a table on every site.
	CreateTable(name string)
	// Load installs initial data according to the system's architecture
	// (replicated everywhere, or partitioned by its placement function).
	Load(rows []LoadRow)
	// NewClient opens a session for the given client id.
	NewClient(id int) Client
	// Stats snapshots system counters.
	Stats() Stats
	// Close shuts the system down.
	Close()
}
