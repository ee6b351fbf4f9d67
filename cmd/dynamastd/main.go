// Command dynamastd hosts a DynaMast cluster behind a TCP endpoint.
// Remote clients submit transactions as declared write sets plus operation
// lists over the binary-codec RPC protocol (see internal/server and
// internal/codec); the embedded site selector routes and remasters exactly
// as in the paper.
//
// Usage:
//
//	dynamastd -listen :7070 -sites 4 -partition-size 100 -wal-dir /var/lib/dynamast \
//	          -metrics-listen :9090 -weights smallbank
//
// -weights picks the remastering strategy's hyperparameters (Equation 8):
// ycsb (the default), tpcc or smallbank, the paper's per-workload values.
//
// With -metrics-listen set, the daemon serves Prometheus-format metrics on
// /metrics, the sampled traces (1 in -trace-sample updates) with their
// lifecycle stages on /debug/traces, and one trace's span tree on
// /debug/spans?trace=<hex id> (see internal/obs). The same snapshot is
// available through `dynactl metrics` over the RPC port, and is printed on
// shutdown.
//
// Chaos testing: -fault-spec installs a deterministic fault injector on the
// cluster wire ("category:kind:prob[:delay]", comma-separated; seeded with
// -fault-seed), and -heartbeat-interval enables the failure detector that
// fails over a site's partitions to survivors when it stops answering
// probes. Rules can be inspected and changed at runtime with
// `dynactl faults`.
//
// A quick session with the bundled client protocol:
//
//	cl, _ := server.Dial("localhost:7070", 1)
//	cl.CreateTable("kv")
//	cl.Put("kv", 42, []byte("hello"))
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dynamast"
	"dynamast/internal/obs"
	"dynamast/internal/server"
)

// parseReplicationFactor parses "min" or "min:max" replica bounds.
func parseReplicationFactor(s string) (int, int, error) {
	minS, maxS, ok := strings.Cut(s, ":")
	min, err := strconv.Atoi(minS)
	if err != nil || min < 1 {
		return 0, 0, fmt.Errorf("bad min %q (want integer >= 1)", minS)
	}
	if !ok {
		return min, 0, nil
	}
	max, err := strconv.Atoi(maxS)
	if err != nil || max < min {
		return 0, 0, fmt.Errorf("bad max %q (want integer >= min %d)", maxS, min)
	}
	return min, max, nil
}

// parseWeights maps a -weights name to the paper's per-workload strategy
// hyperparameters (Appendix H).
func parseWeights(name string) (dynamast.Weights, error) {
	switch name {
	case "ycsb":
		return dynamast.YCSBWeights(), nil
	case "tpcc":
		return dynamast.TPCCWeights(), nil
	case "smallbank":
		return dynamast.SmallBankWeights(), nil
	}
	return dynamast.Weights{}, fmt.Errorf("unknown -weights %q (want ycsb, tpcc or smallbank)", name)
}

func main() {
	listen := flag.String("listen", "127.0.0.1:7070", "address to serve on")
	metricsListen := flag.String("metrics-listen", "", "address for the /metrics, /debug/traces and /debug/spans HTTP endpoints (empty = disabled)")
	sites := flag.Int("sites", 4, "number of data sites")
	partitionSize := flag.Uint64("partition-size", 100, "keys per partition group")
	walDir := flag.String("wal-dir", "", "directory for durable update logs (empty = in-memory)")
	checkpointEvery := flag.Duration("checkpoint-every", 0, "background checkpoint interval; snapshots every site, truncates the covered WAL prefix and bounds restart time (0 = disabled; requires -wal-dir)")
	checkpointRecords := flag.Uint64("checkpoint-every-records", 0, "additionally checkpoint after this many new WAL records (0 = disabled)")
	traceRing := flag.Int("trace-ring", obs.DefaultTraceRing, "sampled traces retained for /debug/traces and /debug/spans")
	faultSpec := flag.String("fault-spec", "", "fault-injection rules, comma-separated category:kind:prob[:delay] (e.g. \"remaster:drop:0.01,txn:delay:0.05:1ms\"); empty = injector disabled")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the deterministic fault-decision stream")
	heartbeat := flag.Duration("heartbeat-interval", 0, "site failure-detection probe interval (0 = detection disabled)")
	traceSample := flag.Int("trace-sample", 64, "head-sample 1 in N update transactions for span tracing, served on /debug/traces and /debug/spans (0 = off; the stage histograms cover every update regardless)")
	sloSpec := flag.String("slo", "", "SLO targets, comma-separated metric:quantile:threshold (e.g. \"dynamast_txn_seconds:p99:250ms\"); empty = disabled")
	sloInterval := flag.Duration("slo-interval", time.Second, "SLO evaluation window")
	flightDir := flag.String("flight-dir", "", "directory for flight-recorder snapshots on failover/recovery/panic (empty = no disk snapshots)")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the metrics listener")
	epochInterval := flag.Duration("epoch-interval", dynamast.DefaultEpochInterval, "epoch group-commit seal interval: commits batch into epochs flushed and replicated as one coalesced record (0 = disabled, per-transaction records)")
	selectorLease := flag.Duration("selector-lease", 0, "selector leadership lease TTL: enables lease-fenced leader failover onto a standby selector (0 = disabled; implies at least 2 selector replicas)")
	selectorReplicas := flag.Int("selector-replicas", 0, "standby selectors per router shard: lease contenders that hold no state and, when promoted, rebuild placement from the last checkpoint and the WAL; with any standby, sessions route reads and single-sited writes locally from the leader's partition map (0 = stand-alone selector, or 2 when -selector-lease is set)")
	selectorShards := flag.Int("selector-shards", 1, "independent router shards in the selector control plane, each owning a contiguous partition-range with its own lease and epoch allocator; above 1, sessions route reads and single-sited writes locally from the shard leaders' partition maps (1 = classic single router)")
	replFactor := flag.String("replication-factor", "", "partial replication bounds per partition, \"min\" or \"min:max\" replicas (empty = classic full replication)")
	weightsName := flag.String("weights", "ycsb", "remastering-strategy hyperparameters (Equation 8): ycsb, tpcc or smallbank")
	placementPolicy := flag.String("placement-policy", "adaptive", "replica placement policy under -replication-factor: adaptive (read-weight driven) or full (every partition everywhere)")
	flag.Parse()

	weights, err := parseWeights(*weightsName)
	if err != nil {
		log.Fatalf("dynamastd: %v", err)
	}
	cfg := dynamast.Config{
		Sites:                  *sites,
		Weights:                weights,
		Partitioner:            dynamast.PartitionByRange(*partitionSize),
		WALDir:                 *walDir,
		TraceRing:              *traceRing,
		TraceSampleEvery:       *traceSample,
		SLOInterval:            *sloInterval,
		FlightDir:              *flightDir,
		CheckpointEvery:        *checkpointEvery,
		CheckpointEveryRecords: *checkpointRecords,
		SelectorReplicas:       *selectorReplicas,
		SelectorShards:         *selectorShards,
		SelectorLease:          *selectorLease,
	}
	if *epochInterval > 0 {
		cfg.EpochInterval = *epochInterval
	} else {
		cfg.EpochInterval = -1 // -epoch-interval=0 opts out
	}
	if *sloSpec != "" {
		targets, err := obs.ParseSLOSpec(*sloSpec)
		if err != nil {
			log.Fatal(err)
		}
		cfg.SLOTargets = targets
	}
	if (*checkpointEvery > 0 || *checkpointRecords > 0) && *walDir == "" {
		log.Fatal("dynamastd: -checkpoint-every requires -wal-dir")
	}
	if *faultSpec != "" {
		rules, err := dynamast.ParseFaultSpec(*faultSpec)
		if err != nil {
			log.Fatal(err)
		}
		inj := dynamast.NewFaultInjector(*faultSeed)
		inj.SetRules(rules...)
		cfg.Faults = inj
	}
	if *heartbeat > 0 {
		cfg.FailureDetection = dynamast.FailureDetection{Interval: *heartbeat}
	}
	if *replFactor != "" {
		min, max, err := parseReplicationFactor(*replFactor)
		if err != nil {
			log.Fatalf("dynamastd: -replication-factor: %v", err)
		}
		cfg.MinReplicas, cfg.MaxReplicas = min, max
		switch *placementPolicy {
		case "adaptive": // the default policy; leave nil
		case "full":
			cfg.PlacementPolicy = dynamast.StaticFullReplication()
		default:
			log.Fatalf("dynamastd: unknown -placement-policy %q (want adaptive or full)", *placementPolicy)
		}
	}
	cluster, err := dynamast.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	if *flightDir != "" {
		// The flight recorder is the black box: on a crash, persist what the
		// process saw before dying.
		defer func() {
			if r := recover(); r != nil {
				if path, err := obs.SnapshotFlight("panic"); err == nil {
					fmt.Fprintf(os.Stderr, "dynamastd: flight snapshot at %s\n", path)
				}
				panic(r)
			}
		}()
	}

	if *walDir != "" {
		// Recover whatever the directory holds: newest valid checkpoint plus
		// WAL suffix replay, or full redo replay. On a fresh directory this
		// is a no-op.
		if err := cluster.Recover(nil); err != nil {
			log.Fatalf("dynamastd: recovery from %s: %v", *walDir, err)
		}
		if st := cluster.LastRecovery(); st.UsedCheckpoint || st.ReplayedOwn+st.ReplayedRefresh > 0 {
			fmt.Printf("dynamastd: recovered from %s: checkpoint=%v seq=%d rows=%d replayed=%d+%d in %v\n",
				*walDir, st.UsedCheckpoint, st.Seq, st.RowsRestored, st.ReplayedOwn, st.ReplayedRefresh, st.Duration)
		}
	}

	srv, addr, err := server.Serve(cluster, *listen)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("dynamastd: %d sites, partition size %d, %s weights, serving on %s\n",
		*sites, *partitionSize, *weightsName, addr)
	if cfg.Faults != nil {
		fmt.Printf("dynamastd: fault injection on (seed %d): %s\n", *faultSeed, *faultSpec)
	}
	if *heartbeat > 0 {
		fmt.Printf("dynamastd: failure detection on, heartbeat every %v\n", *heartbeat)
	}
	if *selectorLease > 0 {
		fmt.Printf("dynamastd: selector HA on, lease %v, %d standby(s)\n",
			*selectorLease, cluster.SelectorReplicas())
	}
	if *selectorShards > 1 {
		fmt.Printf("dynamastd: selector control plane sharded %d ways, local session routing on\n",
			*selectorShards)
	}
	if *checkpointEvery > 0 || *checkpointRecords > 0 {
		fmt.Printf("dynamastd: checkpointing every %v / %d records into %s\n",
			*checkpointEvery, *checkpointRecords, *walDir)
	}
	if *replFactor != "" {
		fmt.Printf("dynamastd: partial replication on, factor %s, policy %s\n",
			*replFactor, *placementPolicy)
	}

	if *metricsListen != "" {
		ln, err := net.Listen("tcp", *metricsListen)
		if err != nil {
			log.Fatal(err)
		}
		defer ln.Close()
		mux := http.NewServeMux()
		mux.Handle("/", obs.Handler(cluster.Obs(), cluster.Spans()))
		if *pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		go http.Serve(ln, mux)
		fmt.Printf("dynamastd: metrics on http://%s/metrics, traces on http://%s/debug/traces\n",
			ln.Addr(), ln.Addr())
		if *pprofOn {
			fmt.Printf("dynamastd: pprof on http://%s/debug/pprof/\n", ln.Addr())
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Shutdown report: render the same registry snapshot /metrics serves,
	// so the console and the endpoint can never disagree.
	fmt.Printf("\ndynamastd: shutting down — final metrics snapshot:\n")
	cluster.Obs().Snapshot().WriteText(os.Stdout)
}
