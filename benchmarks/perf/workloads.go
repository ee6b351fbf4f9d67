package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"dynamast"
	"dynamast/internal/obs"
	"dynamast/internal/systems"
	"dynamast/internal/transport"
	"dynamast/internal/workload"
)

const sites = 4

// refSeconds is the run length the budgets below are stated for. -seconds
// scales them linearly, so a window is always a transaction count, never a
// duration: the in-memory wal.Log retains every entry, a run's heap depends
// on how many transactions it has committed, and a fixed count makes every
// run (and every commit under test) do the same work from the same state.
const refSeconds = 25

// spec describes one workload.
type spec struct {
	name string
	why  string
	// warm and measured are the shared transaction budgets at refSeconds.
	warm, measured int
	tcp            bool
	bank           bool
	ycsb           workload.YCSBConfig
}

var specs = []spec{
	{
		name: "ycsb_rmw",
		why:  "90% 3-key RMW over 100k uniform keys: routing, begin/commit, WAL append and 3x refresh apply do the work; 5-7% of updates remaster",
		warm: 100_000, measured: 500_000,
		ycsb: workload.YCSBConfig{Keys: 100_000, RMWPercent: 90},
	},
	{
		name: "ycsb_scan",
		why:  "90% scans of 200-1000 keys: storage snapshot scans dominate and the commit path is idle, so a commit-path gain must not move it",
		warm: 20_000, measured: 150_000,
		ycsb: workload.YCSBConfig{Keys: 100_000, RMWPercent: 10},
	},
	{
		name: "smallbank",
		why:  "one- and two-row transactions in process: per-transaction fixed overhead (route, vector clones, begin/commit, session glue) dominates, per-row cost is negligible",
		warm: 200_000, measured: 1_500_000,
		bank: true,
	},
	{
		name: "smallbank_tcp",
		why:  "the same operation stream to a child dynamastd over loopback TCP with a file WAL: RPC, wire codec and WAL flush do the work; the gap to smallbank is the wire's share",
		warm: 20_000, measured: 200_000,
		bank: true, tcp: true,
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// budgets scales the spec's budgets to the requested run length and divisor
// (5 for the traced run, 500 for the smoke pass).
func (sp *spec) budgets(seconds float64, div int) (warm, measured int) {
	scale := seconds / refSeconds / float64(div)
	warm = int(float64(sp.warm) * scale)
	measured = int(float64(sp.measured) * scale)
	if measured < nSlices {
		measured = nSlices
	}
	return warm, measured
}

// counters is one reading of the counts the benchmark takes at window
// boundaries. Every field is monotonic; metrics are differences. All but
// walBytes come from the product's own metrics registry, which serves
// Cluster.Obs().Snapshot() in process and the metrics RPC over TCP, so both
// twins are read the same way.
type counters struct {
	commits   float64 // dynamast_commits_total, all sites
	replBytes float64 // dynamast_net_bytes_total{category="replication"}

	writeTxns, remasterTxns, partsMoved float64
	refreshes, walFlushes               float64
	walBytes                            int64 // WAL directory size; 0 with the in-memory log

	encNanos, encBytes, decNanos, decBytes float64 // all codec surfaces

	// Server-observed transaction time (dynamast_txn_seconds) and the
	// lifecycle stage histograms, for what the TCP twin cannot span.
	txnSeconds, txnCount float64
	stageSum, stageCount map[string]float64

	recoverySeconds, recoveryRecords float64
	heapBytes                        float64 // dynamast_go_heap_bytes: live heap, no forced GC
}

// sub returns the counts that accrued between reading b and reading a.
func (a counters) sub(b counters) counters {
	d := counters{
		commits: a.commits - b.commits, replBytes: a.replBytes - b.replBytes,
		writeTxns: a.writeTxns - b.writeTxns, remasterTxns: a.remasterTxns - b.remasterTxns,
		partsMoved: a.partsMoved - b.partsMoved, refreshes: a.refreshes - b.refreshes,
		walFlushes: a.walFlushes - b.walFlushes, walBytes: a.walBytes - b.walBytes,
		encNanos: a.encNanos - b.encNanos, encBytes: a.encBytes - b.encBytes,
		decNanos: a.decNanos - b.decNanos, decBytes: a.decBytes - b.decBytes,
		txnSeconds: a.txnSeconds - b.txnSeconds, txnCount: a.txnCount - b.txnCount,
		stageSum: map[string]float64{}, stageCount: map[string]float64{},
	}
	for k := range a.stageSum {
		d.stageSum[k] = a.stageSum[k] - b.stageSum[k]
		d.stageCount[k] = a.stageCount[k] - b.stageCount[k]
	}
	return d
}

func readCounters(snap obs.Snapshot) counters {
	c := counters{stageSum: map[string]float64{}, stageCount: map[string]float64{}}
	for _, s := range snap.Samples {
		switch s.Name {
		case "dynamast_commits_total":
			c.commits += s.Value
		case "dynamast_net_bytes_total":
			if label(s, "category") == transport.CatReplication.String() {
				c.replBytes = s.Value
			}
		case "dynamast_route_total":
			if label(s, "type") == "write" {
				c.writeTxns = s.Value
			}
		case "dynamast_remaster_total":
			c.remasterTxns = s.Value
		case "dynamast_remaster_partitions_total":
			c.partsMoved = s.Value
		case "dynamast_refreshes_total":
			c.refreshes += s.Value
		case "dynamast_wal_flushes_total":
			c.walFlushes += s.Value
		case "dynamast_codec_encode_nanos_total":
			c.encNanos += s.Value
		case "dynamast_codec_encode_bytes_total":
			c.encBytes += s.Value
		case "dynamast_codec_decode_nanos_total":
			c.decNanos += s.Value
		case "dynamast_codec_decode_bytes_total":
			c.decBytes += s.Value
		case "dynamast_txn_seconds":
			c.txnSeconds += s.Sum
			c.txnCount += float64(s.Count)
		case "dynamast_txn_stage_seconds":
			st := label(s, "stage")
			c.stageSum[st] += s.Sum
			c.stageCount[st] += float64(s.Count)
		case "dynamast_recovery_seconds":
			c.recoverySeconds = s.Sum
		case "dynamast_recovery_replayed_records_total":
			c.recoveryRecords = s.Value
		case "dynamast_go_heap_bytes":
			c.heapBytes = s.Value
		}
	}
	return c
}

func label(s obs.Sample, key string) string {
	for _, l := range s.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// env is a loaded, warmed system under test.
type env interface {
	// sessions opens nSessions closed-loop clients. With tracers the
	// clients record spans (one tracer per session).
	sessions(seed int64, tracers []*tracer) ([]session, error)
	// cpu is the user+sys CPU time of the process that runs the cluster.
	cpu() time.Duration
	// counters reads the boundary counters.
	counters() (counters, error)
	// heapMB is the heap of the process that runs the cluster, in MB:
	// HeapAlloc after a forced GC in process, the daemon's live-heap gauge
	// over TCP (where a GC cannot be forced from outside).
	heapMB() (float64, error)
	// quiesce waits until every replica has applied every commit.
	quiesce() error
	// check verifies the system's state against what the sessions were
	// acknowledged; ackedDeposits is the SmallBank deposit total.
	check(ackedDeposits uint64) error
	// close stops the system; closing twice is harmless.
	close()
}

// local is an in-process cluster.
type local struct {
	sp      *spec
	cluster *dynamast.Cluster
	w       workload.Workload
	loaded  []systems.LoadRow
	nextID  int
}

func bankWorkload() *workload.SmallBank {
	return workload.NewSmallBank(workload.SmallBankConfig{Customers: bankCustomers, PartitionSize: bankPartitionSize})
}

func (sp *spec) workload() workload.Workload {
	if sp.bank {
		return bankWorkload()
	}
	return workload.NewYCSB(sp.ycsb)
}

// newLocal builds the in-process cluster through the options API: 4 sites,
// default selector topology, the instant wire and a zero cost model (so CPU
// is the limiter), seal-per-commit, in-memory WAL, and the paper's strategy
// weights for the workload. Under the YCSB weights SmallBank remasters a
// third of its updates and slows as the run goes on; under its own it
// settles below 1% within the warm-up, which is the steady state to measure.
func newLocal(sp *spec, seed int64) (*local, error) {
	w := sp.workload()
	weights := dynamast.YCSBWeights()
	if sp.bank {
		weights = dynamast.SmallBankWeights()
	}
	cluster, err := dynamast.New(
		dynamast.WithSites(sites),
		dynamast.WithPartitioner(w.Partitioner()),
		dynamast.WithWeights(weights),
		dynamast.WithNetwork(transport.Instant()),
		dynamast.WithEpochInterval(0),
		dynamast.WithSeed(seed),
	)
	if err != nil {
		return nil, err
	}
	for _, t := range w.Tables() {
		cluster.CreateTable(t)
	}
	rows := w.LoadRows()
	cluster.Load(rows)
	return &local{sp: sp, cluster: cluster, w: w, loaded: rows}, nil
}

// ycsbSession is one closed-loop YCSB client.
type ycsbSession struct {
	g   workload.Generator
	cl  systems.Client
	tr  *tracer
	cur workload.Txn
}

func (s *ycsbSession) gen() {
	if s.tr == nil {
		s.cur = s.g.Next()
		return
	}
	t0 := s.tr.now()
	s.cur = s.g.Next()
	s.tr.add(spanGen, noParent, t0, s.tr.now())
}

func (s *ycsbSession) exec() (uint8, error) {
	if s.cur.Update {
		return classUpdate, s.cl.Update(s.cur.WriteSet, s.cur.Run)
	}
	return classRead, s.cl.Read(s.cur.ReadHint, s.cur.Run)
}

// sessionSeed derives a session's private amount stream from the run seed.
func sessionSeed(seed int64, id int) int64 { return seed*1_000_003 + int64(id) }

func (l *local) sessions(seed int64, tracers []*tracer) ([]session, error) {
	out := make([]session, nSessions)
	for i := range out {
		id := l.nextID
		l.nextID++
		var cl systems.Client
		var tr *tracer
		if tracers != nil {
			tr = tracers[i]
			cl = newTracedClient(l.cluster, id, tr)
		} else {
			cl = l.cluster.NewClient(id)
		}
		g := l.w.NewGenerator(id, seed)
		if l.sp.bank {
			out[i] = &bankSession{
				g: g, r: rand.New(rand.NewSource(sessionSeed(seed, id))), tr: tr,
				submit: inProcess(cl),
			}
		} else {
			out[i] = &ycsbSession{g: g, cl: cl, tr: tr}
		}
	}
	return out, nil
}

func (l *local) cpu() time.Duration { return selfCPU() }

func (l *local) counters() (counters, error) {
	return readCounters(l.cluster.Obs().Snapshot()), nil
}

func (l *local) heapMB() (float64, error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20), nil
}

func (l *local) quiesce() error { return l.cluster.WaitQuiesced(30 * time.Second) }

// check verifies, after quiescing: the four Site.ReadLocal copies of every
// loaded row are byte-identical, each site holds exactly the loaded row
// count, YCSB values still start with their key, and SmallBank's checking
// total read through the masters is the initial total plus every
// acknowledged deposit.
func (l *local) check(ackedDeposits uint64) error {
	if err := l.quiesce(); err != nil {
		return err
	}
	perTable := map[string]int{}
	for _, row := range l.loaded {
		perTable[row.Ref.Table]++
		var first []byte
		for i, s := range l.cluster.Sites() {
			data, ok := s.ReadLocal(row.Ref)
			if !ok {
				return fmt.Errorf("check: %v missing at site %d", row.Ref, i)
			}
			if i == 0 {
				first = data
			} else if !bytes.Equal(first, data) {
				return fmt.Errorf("check: %v differs between site 0 and site %d", row.Ref, i)
			}
		}
		if !l.sp.bank && (len(first) < 8 || binary.BigEndian.Uint64(first) != row.Ref.Key) {
			return fmt.Errorf("check: %v no longer starts with its key", row.Ref)
		}
	}
	for table, want := range perTable {
		for i, s := range l.cluster.Sites() {
			if got := len(s.ScanLocal(table, 0, math.MaxUint64)); got != want {
				return fmt.Errorf("check: site %d holds %d rows of %s, loaded %d", i, got, table, want)
			}
		}
	}
	if !l.sp.bank {
		return nil
	}
	sum, err := sumChecking(inProcess(l.cluster.NewClient(l.nextID)))
	l.nextID++
	if err != nil {
		return err
	}
	return checkBankTotal(sum, ackedDeposits)
}

// checkBankTotal compares the checking total with what must be there.
func checkBankTotal(sum, ackedDeposits uint64) error {
	if want := uint64(bankCustomers)*bankInitial + ackedDeposits; sum != want {
		return fmt.Errorf("check: checking total is %d, want %d (initial + %d acknowledged deposits): off by %d",
			sum, want, ackedDeposits, int64(sum-want))
	}
	return nil
}

func (l *local) close() { l.cluster.Close() }
