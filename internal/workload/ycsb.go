package workload

import (
	"fmt"
	"math/rand"

	"dynamast/internal/sitemgr"
	"dynamast/internal/storage"
	"dynamast/internal/systems"
)

// YCSBTable is the single YCSB table name.
const YCSBTable = "usertable"

// YCSBConfig parameterizes the paper's YCSB variant (Appendix C): the key
// space is divided into partitions of 100 contiguous keys; multi-partition
// read-modify-write transactions update three keys drawn from neighbouring
// partitions via a re-centred Binomial(5, 0.5); scan transactions read all
// keys of 2-10 consecutive partitions (200-1000 keys); clients exhibit
// affinity, issuing a bounded number of transactions against a correlated
// partition set before being replaced.
type YCSBConfig struct {
	// Keys is the number of rows (default 100k, a scaled-down stand-in
	// for the paper's 5 GB database).
	Keys uint64
	// PartitionSize is the contiguous keys per partition (default 100).
	PartitionSize uint64
	// RMWPercent is the share of read-modify-write transactions; the rest
	// are scans (paper mixes: 50 and 90).
	RMWPercent int
	// ValueSize is the payload bytes per row (default 100).
	ValueSize int
	// Zipfian selects skewed base-partition access with Theta.
	Zipfian bool
	// Theta is the Zipfian skew (default 0.75, the paper's rho).
	Theta float64
	// AffinityTxns, when nonzero, pins a client to one correlated
	// partition region for that many transactions before redrawing it
	// (the paper's client-affinity churn; its adaptivity experiment uses
	// 25). Zero draws the base partition per transaction from the access
	// distribution, which Appendix C specifies for RMW and scan base
	// selection — the paper reports affinity changes throughput by <2%.
	AffinityTxns int
	// Shuffled randomizes partition correlations: the neighbour algorithm
	// runs over a seeded permutation of partition ids, so range-based
	// placement no longer matches the workload (the paper's
	// changing-workload experiment, Figure 5b).
	Shuffled bool
	// ShuffleSeed seeds the permutation when Shuffled is set.
	ShuffleSeed int64
}

// withDefaults fills zero fields.
func (c YCSBConfig) withDefaults() YCSBConfig {
	if c.Keys == 0 {
		c.Keys = 100_000
	}
	if c.PartitionSize == 0 {
		c.PartitionSize = 100
	}
	if c.RMWPercent == 0 {
		c.RMWPercent = 50
	}
	if c.ValueSize == 0 {
		c.ValueSize = 100
	}
	if c.Theta == 0 {
		c.Theta = 0.75
	}
	return c
}

// YCSB implements Workload.
type YCSB struct {
	cfg   YCSBConfig
	parts uint64
	perm  []uint64 // partition permutation (identity unless Shuffled)
}

// NewYCSB builds the workload.
func NewYCSB(cfg YCSBConfig) *YCSB {
	cfg = cfg.withDefaults()
	w := &YCSB{cfg: cfg, parts: cfg.Keys / cfg.PartitionSize}
	w.perm = make([]uint64, w.parts)
	for i := range w.perm {
		w.perm[i] = uint64(i)
	}
	if cfg.Shuffled {
		r := rand.New(rand.NewSource(cfg.ShuffleSeed))
		r.Shuffle(len(w.perm), func(i, j int) { w.perm[i], w.perm[j] = w.perm[j], w.perm[i] })
	}
	return w
}

// Name implements Workload.
func (w *YCSB) Name() string {
	mix := fmt.Sprintf("%d-%d", w.cfg.RMWPercent, 100-w.cfg.RMWPercent)
	dist := "uniform"
	if w.cfg.Zipfian {
		dist = "zipfian"
	}
	return fmt.Sprintf("ycsb-%s-%s", mix, dist)
}

// Tables implements Workload.
func (w *YCSB) Tables() []string { return []string{YCSBTable} }

// LoadRows implements Workload.
func (w *YCSB) LoadRows() []systems.LoadRow {
	rows := make([]systems.LoadRow, 0, w.cfg.Keys)
	for k := uint64(0); k < w.cfg.Keys; k++ {
		val := make([]byte, w.cfg.ValueSize)
		putU64(val, 0, k)
		rows = append(rows, systems.LoadRow{
			Ref:  storage.RowRef{Table: YCSBTable, Key: k},
			Data: val,
		})
	}
	return rows
}

// Partitioner implements Workload: partitions of PartitionSize contiguous
// keys.
func (w *YCSB) Partitioner() sitemgr.Partitioner {
	size := w.cfg.PartitionSize
	return func(ref storage.RowRef) uint64 { return ref.Key / size }
}

// PlacementBlock is the contiguous-partition block size of the static
// range placement: blocks of ten 100-key ranges are assigned round-robin
// to sites. The block size sits just above the workload's correlation
// neighbourhood (offsets within ±3 partitions, scans of 2-10 partitions),
// the granularity a Schism-style partitioner balancing load against
// co-access would arrive at; transactions whose partition set straddles a
// block boundary become distributed in the partitioned baselines.
const PlacementBlock = 50

// Placement implements Workload: block-granular range partitioning.
func (w *YCSB) Placement(m int) func(part uint64) int {
	return func(part uint64) int {
		return int(part/PlacementBlock) % m
	}
}

// ReplicatedTables implements Workload.
func (w *YCSB) ReplicatedTables() map[string]bool { return nil }

// ycsbGen is one client's stream.
type ycsbGen struct {
	w      *YCSB
	r      *rand.Rand
	zipf   *Zipf
	anchor uint64 // affinity anchor partition
	left   int    // txns left in the affinity period
}

// NewGenerator implements Workload.
func (w *YCSB) NewGenerator(client int, seed int64) Generator {
	r := rand.New(rand.NewSource(seed ^ int64(client)*0x5851F42D4C957F2D))
	g := &ycsbGen{w: w, r: r}
	if w.cfg.Zipfian {
		g.zipf = NewZipf(r, w.parts, w.cfg.Theta)
	}
	g.redraw()
	return g
}

// redraw picks a new affinity anchor.
func (g *ycsbGen) redraw() {
	g.anchor = g.drawBase()
	g.left = g.w.cfg.AffinityTxns
}

// drawBase draws a base partition from the access distribution.
func (g *ycsbGen) drawBase() uint64 {
	if g.zipf != nil {
		return g.zipf.Next()
	}
	return uint64(g.r.Intn(int(g.w.parts)))
}

// base returns this transaction's base partition: the affinity anchor when
// affinity is configured, a fresh distribution draw otherwise.
func (g *ycsbGen) base() uint64 {
	if g.w.cfg.AffinityTxns > 0 {
		return g.anchor
	}
	return g.drawBase()
}

// neighbor maps a logical partition index to a concrete partition id via
// the (possibly shuffled) permutation.
func (g *ycsbGen) neighbor(base uint64, offset int) uint64 {
	idx := clampPartition(int64(base)+int64(offset), g.w.parts)
	return g.w.perm[idx]
}

// keyIn draws a uniform key within partition part.
func (g *ycsbGen) keyIn(part uint64) uint64 {
	size := g.w.cfg.PartitionSize
	return part*size + uint64(g.r.Intn(int(size)))
}

// Next implements Generator.
func (g *ycsbGen) Next() Txn {
	if g.w.cfg.AffinityTxns > 0 && g.left <= 0 {
		g.redraw() // client replaced by one with a fresh partition set
	}
	g.left--
	if g.r.Intn(100) < g.w.cfg.RMWPercent {
		return g.rmw()
	}
	return g.scan()
}

// rmw builds a three-key read-modify-write over the base partition and two
// neighbours.
func (g *ycsbGen) rmw() Txn {
	base := g.base()
	keys := []uint64{
		g.keyIn(g.w.perm[base]),
		g.keyIn(g.neighbor(base, NeighborOffset(g.r))),
		g.keyIn(g.neighbor(base, NeighborOffset(g.r))),
	}
	ws := make([]storage.RowRef, len(keys))
	for i, k := range keys {
		ws[i] = storage.RowRef{Table: YCSBTable, Key: k}
	}
	valSize := g.w.cfg.ValueSize
	stamp := g.r.Uint64()
	return Txn{
		Kind:     "rmw",
		Update:   true,
		WriteSet: ws,
		Run: func(tx systems.Tx) error {
			for _, ref := range ws {
				old, ok := tx.Read(ref)
				val := make([]byte, valSize)
				if ok && len(old) >= 16 {
					copy(val, old)
				}
				putU64(val, 8, stamp)
				if err := tx.Write(ref, val); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// scan builds a 2-10 partition (200-1000 key) read-only scan starting at
// the base partition. When correlations are shuffled the scan reads each
// correlated partition's range individually.
func (g *ycsbGen) scan() Txn {
	base := g.base()
	k := 2 + g.r.Intn(9)
	size := g.w.cfg.PartitionSize
	parts := make([]uint64, 0, k)
	for i := 0; i < k; i++ {
		parts = append(parts, g.neighbor(base, i))
	}
	return Txn{
		Kind:     "scan",
		ReadHint: []storage.RowRef{{Table: YCSBTable, Key: parts[0] * size}},
		Run: func(tx systems.Tx) error {
			total := 0
			for _, p := range parts {
				rows := tx.Scan(YCSBTable, p*size, (p+1)*size)
				total += len(rows)
			}
			if total == 0 {
				return fmt.Errorf("ycsb: scan of %d partitions returned nothing", len(parts))
			}
			return nil
		},
	}
}
