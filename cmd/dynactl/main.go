// Command dynactl is a command-line client for dynamastd.
//
// Usage:
//
//	dynactl [-addr host:port] [-client 1] <command> [args]
//
// Commands:
//
//	create-table <table>
//	put <table> <key> <value>
//	get <table> <key>
//	add <table> <key> <delta>          atomic counter increment
//	scan <table> <lo> <hi>
//	txn <table> <key1,key2,...>        atomically increment several keys
//	bench <table> <keys> <ops>         quick closed-loop load generator
//	                                   (how often its multi-key transactions
//	                                   remaster depends on the daemon's
//	                                   -weights ycsb|tpcc|smallbank)
//	stats                              cluster statistics snapshot
//	checkpoint                         take a checkpoint now: snapshots every
//	                                   site and truncates the covered WAL
//	                                   prefix (requires -wal-dir on the daemon)
//	placement [-shard N]               replica placement snapshot: per-partition
//	                                   replica sets and masters, per-site
//	                                   resident-partition counts, and the recent
//	                                   replica add/drop decisions (partial
//	                                   replication; see -replication-factor).
//	                                   With -shard N, only partitions owned by
//	                                   router shard N (see -selector-shards)
//	faults [set <spec> | off]          show, replace ("category:kind:prob
//	                                   [:delay]", comma-separated) or clear
//	                                   the cluster's fault-injection rules
//	metrics [prom] [traces N]          full observability snapshot; "prom"
//	                                   switches to Prometheus exposition
//	                                   format, "traces N" appends the N most
//	                                   recent sampled traces with their
//	                                   lifecycle stages
//
// HTTP commands (against the daemon's -metrics-listen endpoint, -http flag;
// these do not open an RPC connection):
//
//	traces [slow] [N]                  the N most recent (or, with "slow",
//	                                   slowest-first) sampled traces from
//	                                   /debug/traces: hex id, execute site,
//	                                   span count and the lifecycle stages
//	                                   derived from the span tree (the
//	                                   daemon samples 1 in -trace-sample)
//	trace <hexid>                      one trace's span tree from
//	                                   /debug/spans, rendered with parent
//	                                   indentation
//	flightrec                          the flight-recorder event ring
//	epochs                             epoch group-commit status: configured
//	                                   interval, seal/commit rates over a 1s
//	                                   window, mean txns per epoch, and the
//	                                   replication bytes the delta-coalesced
//	                                   frames saved
//	selector                           selector control-plane status. Single
//	                                   router: the node holding the leadership
//	                                   lease, lease epoch, leader-change/
//	                                   renewal/expiry counts and mean
//	                                   promotion latency. Sharded
//	                                   (-selector-shards > 1): one row per
//	                                   router shard — leaseholder, lease epoch,
//	                                   partitions owned and routes/sec — plus
//	                                   cross-shard and placement-cache counters
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"dynamast/internal/obs"
	"dynamast/internal/selector"
	"dynamast/internal/server"
	"dynamast/internal/storage"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "dynamastd address")
	httpAddr := flag.String("http", "127.0.0.1:9090", "dynamastd -metrics-listen address (traces/trace/flightrec/epochs/selector commands)")
	client := flag.Int("client", 1, "client/session id")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	cmd, args := args[0], args[1:]
	switch cmd {
	case "traces", "trace", "flightrec", "epochs", "selector":
		// HTTP-only commands: no RPC session needed.
		if err := runHTTP(*httpAddr, cmd, args); err != nil {
			log.Fatalf("dynactl: %s: %v", cmd, err)
		}
		return
	}

	cl, err := server.Dial(*addr, *client)
	if err != nil {
		log.Fatalf("dynactl: connect %s: %v", *addr, err)
	}
	defer cl.Close()

	if err := run(cl, cmd, args); err != nil {
		log.Fatalf("dynactl: %s: %v", cmd, err)
	}
}

// getJSON fetches a path from the daemon's metrics listener and decodes the
// JSON body into out.
func getJSON(addr, path string, out any) error {
	url := "http://" + addr + path
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// runHTTP serves the trace-inspection commands off the daemon's HTTP
// observability endpoints.
func runHTTP(addr, cmd string, args []string) error {
	switch cmd {
	case "traces":
		slow, n := false, 0
		for _, a := range args {
			if a == "slow" {
				slow = true
				continue
			}
			v, err := strconv.Atoi(a)
			if err != nil || v < 0 {
				return fmt.Errorf("usage: traces [slow] [N]")
			}
			n = v
		}
		path := fmt.Sprintf("/debug/traces?n=%d", n)
		if slow {
			path = fmt.Sprintf("/debug/traces?slowest=%d", n)
		}
		var traces []obs.TraceJSON
		if err := getJSON(addr, path, &traces); err != nil {
			return err
		}
		printTraces(traces)
		fmt.Printf("(%d traces)\n", len(traces))
		return nil

	case "trace":
		if len(args) != 1 {
			return fmt.Errorf("usage: trace <hexid>")
		}
		var spans []obs.SpanJSON
		if err := getJSON(addr, "/debug/spans?trace="+args[0], &spans); err != nil {
			return err
		}
		printSpanTree(spans)
		return nil

	case "flightrec":
		var events []obs.FlightEvent
		if err := getJSON(addr, "/debug/flightrecorder", &events); err != nil {
			return err
		}
		for _, ev := range events {
			fmt.Printf("%6d  %s  %-12s site=%-3d %s\n",
				ev.Seq, ev.At.Format(time.RFC3339Nano), ev.Kind, ev.Site, ev.Msg)
		}
		fmt.Printf("(%d events)\n", len(events))
		return nil

	case "epochs":
		if len(args) != 0 {
			return fmt.Errorf("usage: epochs")
		}
		return runEpochs(addr)
	case "selector":
		if len(args) != 0 {
			return fmt.Errorf("usage: selector")
		}
		return runSelector(addr)
	}
	return fmt.Errorf("unknown command %q", cmd)
}

// epochStats is one scrape of the epoch metric family, summed across sites.
type epochStats struct {
	interval   float64 // dynamast_epoch_interval_seconds (per-site gauge, max)
	seals      float64 // dynamast_epoch_seals_total
	txns       float64 // dynamast_epoch_txns_total
	bytesSaved float64 // dynamast_epoch_bytes_saved_total
	sealSum    float64 // dynamast_epoch_seal_seconds_sum
	sealCount  float64 // dynamast_epoch_seal_seconds_count
}

// scrapeEpochStats pulls /metrics and folds the dynamast_epoch_* series.
func scrapeEpochStats(addr string) (epochStats, error) {
	var st epochStats
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/metrics: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "dynamast_epoch_") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		switch name {
		case "dynamast_epoch_interval_seconds":
			if v > st.interval {
				st.interval = v
			}
		case "dynamast_epoch_seals_total":
			st.seals += v
		case "dynamast_epoch_txns_total":
			st.txns += v
		case "dynamast_epoch_bytes_saved_total":
			st.bytesSaved += v
		case "dynamast_epoch_seal_seconds_sum":
			st.sealSum += v
		case "dynamast_epoch_seal_seconds_count":
			st.sealCount += v
		}
	}
	return st, nil
}

// runEpochs scrapes the epoch metrics twice about a second apart and prints
// configuration, rates over the window, and cumulative coalescing savings.
func runEpochs(addr string) error {
	before, err := scrapeEpochStats(addr)
	if err != nil {
		return err
	}
	start := time.Now()
	time.Sleep(time.Second)
	after, err := scrapeEpochStats(addr)
	if err != nil {
		return err
	}
	window := time.Since(start).Seconds()

	if after.interval <= 0 {
		fmt.Println("epoch group commit: disabled (-epoch-interval 0)")
		return nil
	}
	fmt.Printf("epoch interval:   %v\n", time.Duration(after.interval*float64(time.Second)).Round(time.Microsecond))
	dSeals := after.seals - before.seals
	dTxns := after.txns - before.txns
	fmt.Printf("seals:            %.0f total, %.1f/s over the last %.1fs\n", after.seals, dSeals/window, window)
	fmt.Printf("commits sealed:   %.0f total, %.1f/s over the last %.1fs\n", after.txns, dTxns/window, window)
	switch {
	case dSeals > 0:
		fmt.Printf("txns per epoch:   %.2f (current)\n", dTxns/dSeals)
	case after.seals > 0:
		fmt.Printf("txns per epoch:   %.2f (lifetime; idle now)\n", after.txns/after.seals)
	}
	if after.sealCount > 0 {
		mean := time.Duration(after.sealSum / after.sealCount * float64(time.Second))
		fmt.Printf("mean seal time:   %v\n", mean.Round(time.Microsecond))
	}
	fmt.Printf("bytes saved:      %.0f total vs per-txn frames", after.bytesSaved)
	if after.txns > 0 {
		fmt.Printf(" (%.1f B/txn)", after.bytesSaved/after.txns)
	}
	fmt.Println()
	return nil
}

// selectorStats is one scrape of the selector-HA metric family for one
// router shard (or the whole selector when the control plane is unsharded).
type selectorStats struct {
	present    bool    // any HA-family series seen (the shard/partition gauges share the prefix but exist without a lease)
	leader     float64 // dynamast_selector_leader (0 = initial master, i+1 = standby i)
	changes    float64 // dynamast_selector_leader_changes_total
	epoch      float64 // dynamast_selector_lease_epoch
	renewals   float64 // dynamast_selector_lease_renewals_total
	expiries   float64 // dynamast_selector_lease_expiries_total
	promoteSum float64 // dynamast_selector_promotion_seconds_sum
	promoteCnt float64 // dynamast_selector_promotion_seconds_count
	routes     float64 // dynamast_selector_shard_routes_total
	partitions float64 // dynamast_selector_shard_partitions
	remasters  float64 // dynamast_selector_shard_remasters_total
}

// selectorScrape is one scrape of the selector control plane: the shard
// count, per-shard HA/routing series keyed by shard index (-1 = unlabeled,
// i.e. a single-router deployment), and the cross-shard/cache counters.
type selectorScrape struct {
	shards      int
	shard       map[int]*selectorStats
	crossWrites float64 // dynamast_selector_shard_cross_writes_total
	crossHints  float64 // dynamast_selector_shard_cross_hints_total
	cacheRoutes float64 // dynamast_selector_cache_routes_total{type="all"}
	cacheMisses float64 // dynamast_selector_cache_misses_total
	cacheStale  float64 // dynamast_selector_cache_stale_writes_total
	cacheSize   float64 // dynamast_selector_cache_entries
}

func (sc *selectorScrape) at(shard int) *selectorStats {
	st := sc.shard[shard]
	if st == nil {
		st = &selectorStats{}
		sc.shard[shard] = st
	}
	return st
}

// parseProm splits one Prometheus exposition line into name, labels, value.
func parseProm(line string) (name string, labels map[string]string, v float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) != 2 {
		return "", nil, 0, false
	}
	v, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return "", nil, 0, false
	}
	name = fields[0]
	if i := strings.IndexByte(name, '{'); i >= 0 {
		rest := strings.TrimSuffix(name[i+1:], "}")
		name = name[:i]
		labels = make(map[string]string)
		for _, pair := range strings.Split(rest, ",") {
			k, val, found := strings.Cut(pair, "=")
			if found {
				labels[k] = strings.Trim(val, `"`)
			}
		}
	}
	return name, labels, v, true
}

// scrapeSelectorStats pulls /metrics and folds every dynamast_selector_*
// series into a per-shard view.
func scrapeSelectorStats(addr string) (*selectorScrape, error) {
	sc := &selectorScrape{shard: make(map[int]*selectorStats)}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "dynamast_selector_") {
			continue
		}
		name, labels, v, ok := parseProm(line)
		if !ok {
			continue
		}
		shard := -1
		if s, found := labels["shard"]; found {
			if n, err := strconv.Atoi(s); err == nil {
				shard = n
			}
		}
		switch name {
		case "dynamast_selector_shards":
			sc.shards = int(v)
		case "dynamast_selector_leader":
			sc.at(shard).present = true
			sc.at(shard).leader = v
		case "dynamast_selector_leader_changes_total":
			sc.at(shard).changes = v
		case "dynamast_selector_lease_epoch":
			sc.at(shard).epoch = v
		case "dynamast_selector_lease_renewals_total":
			sc.at(shard).renewals = v
		case "dynamast_selector_lease_expiries_total":
			sc.at(shard).expiries = v
		case "dynamast_selector_promotion_seconds_sum":
			sc.at(shard).promoteSum = v
		case "dynamast_selector_promotion_seconds_count":
			sc.at(shard).promoteCnt = v
		case "dynamast_selector_shard_routes_total":
			sc.at(shard).routes = v
		case "dynamast_selector_shard_partitions":
			sc.at(shard).partitions = v
		case "dynamast_selector_shard_remasters_total":
			sc.at(shard).remasters = v
		case "dynamast_selector_shard_cross_writes_total":
			sc.crossWrites = v
		case "dynamast_selector_shard_cross_hints_total":
			sc.crossHints = v
		case "dynamast_selector_cache_routes_total":
			if labels["type"] == "all" {
				sc.cacheRoutes = v
			}
		case "dynamast_selector_cache_misses_total":
			sc.cacheMisses = v
		case "dynamast_selector_cache_stale_writes_total":
			sc.cacheStale = v
		case "dynamast_selector_cache_entries":
			sc.cacheSize = v
		}
	}
	return sc, nil
}

// printLeaseStats renders one shard's (or the single selector's) lease view.
func printLeaseStats(st *selectorStats) {
	who := "initial master"
	if st.leader > 0 {
		who = fmt.Sprintf("promoted standby %d", int(st.leader)-1)
	}
	fmt.Printf("leader:           node %d (%s)\n", int(st.leader), who)
	fmt.Printf("lease epoch:      %.0f\n", st.epoch)
	fmt.Printf("leader changes:   %.0f\n", st.changes)
	fmt.Printf("lease renewals:   %.0f\n", st.renewals)
	fmt.Printf("lease expiries:   %.0f\n", st.expiries)
	if st.promoteCnt > 0 {
		mean := time.Duration(st.promoteSum / st.promoteCnt * float64(time.Second))
		fmt.Printf("mean promotion:   %v over %.0f failover(s)\n", mean.Round(time.Microsecond), st.promoteCnt)
	}
}

// runSelector scrapes the selector metrics and prints the control plane's
// state. For a sharded control plane it scrapes twice about a second apart
// and prints one row per router shard — leaseholder, lease epoch,
// partitions owned, and routes/sec over the window — plus the
// cross-shard and placement-cache counters. For a single router it prints
// the classic HA leadership view.
func runSelector(addr string) error {
	before, err := scrapeSelectorStats(addr)
	if err != nil {
		return err
	}
	if before.shards <= 1 {
		st := before.shard[-1]
		if st == nil || !st.present {
			fmt.Println("selector HA: disabled (-selector-lease 0)")
			return nil
		}
		printLeaseStats(st)
		return nil
	}

	start := time.Now()
	time.Sleep(time.Second)
	after, err := scrapeSelectorStats(addr)
	if err != nil {
		return err
	}
	window := time.Since(start).Seconds()

	haOn := false
	for _, st := range after.shard {
		if st.present {
			haOn = true
		}
	}
	fmt.Printf("selector control plane: %d router shards", after.shards)
	if !haOn {
		fmt.Print(" (no lease; -selector-lease 0)")
	}
	fmt.Println()
	fmt.Printf("%-6s %-24s %-12s %-11s %s\n",
		"shard", "leaseholder", "lease epoch", "partitions", "routes/s")
	for i := 0; i < after.shards; i++ {
		st := after.shard[i]
		if st == nil {
			continue
		}
		holder, epoch := "-", "-"
		if st.present {
			holder = "node 0 (initial master)"
			if st.leader > 0 {
				holder = fmt.Sprintf("node %d (standby %d)", int(st.leader), int(st.leader)-1)
			}
			epoch = fmt.Sprintf("%.0f", st.epoch)
		}
		rate := st.routes
		if prev := before.shard[i]; prev != nil {
			rate = (st.routes - prev.routes) / window
		}
		fmt.Printf("%-6d %-24s %-12s %-11.0f %.1f\n",
			i, holder, epoch, st.partitions, rate)
	}
	fmt.Printf("cross-shard writes: %.0f, co-access hints exchanged: %.0f\n",
		after.crossWrites, after.crossHints)
	fmt.Printf("placement cache:    %.0f entries, %.0f cached routes (%.1f/s), %.0f misses, %.0f stale writes resubmitted\n",
		after.cacheSize, after.cacheRoutes, (after.cacheRoutes-before.cacheRoutes)/window,
		after.cacheMisses, after.cacheStale)
	return nil
}

// printTraces renders trace headlines, each followed by its lifecycle
// stages in execution order.
func printTraces(traces []obs.TraceJSON) {
	for _, tr := range traces {
		fmt.Printf("trace %s site=%d remastered=%v spans=%d total=%s\n",
			tr.Trace, tr.Site, tr.Remastered, tr.Spans, tr.Total)
		for _, st := range obs.Stages() {
			if ns, ok := tr.Stages[st.String()]; ok {
				fmt.Printf("  %-13s %s\n", st, time.Duration(ns))
			}
		}
	}
}

// printSpanTree renders a span list as an indented tree (children under
// parents, siblings in start order); orphaned spans print at the root.
func printSpanTree(spans []obs.SpanJSON) {
	children := make(map[string][]obs.SpanJSON)
	ids := make(map[string]bool, len(spans))
	for _, sp := range spans {
		ids[sp.ID] = true
	}
	for _, sp := range spans {
		p := sp.Parent
		if p != "" && !ids[p] {
			p = "" // orphan (parent evicted or remote): show at root
		}
		children[p] = append(children[p], sp)
	}
	var walk func(parent, indent string)
	walk = func(parent, indent string) {
		for _, sp := range children[parent] {
			fmt.Printf("%s%-14s site=%-3d dur=%-12s id=%s\n", indent, sp.Name, sp.Site, sp.Dur, sp.ID)
			walk(sp.ID, indent+"  ")
		}
	}
	walk("", "")
	fmt.Printf("(%d spans)\n", len(spans))
}

func run(cl *server.Client, cmd string, args []string) error {
	u64 := func(s string) uint64 {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			log.Fatalf("dynactl: bad number %q", s)
		}
		return v
	}
	switch cmd {
	case "create-table":
		if len(args) != 1 {
			return fmt.Errorf("usage: create-table <table>")
		}
		return cl.CreateTable(args[0])

	case "put":
		if len(args) != 3 {
			return fmt.Errorf("usage: put <table> <key> <value>")
		}
		return cl.Put(args[0], u64(args[1]), []byte(args[2]))

	case "get":
		if len(args) != 2 {
			return fmt.Errorf("usage: get <table> <key>")
		}
		data, ok, err := cl.Get(args[0], u64(args[1]))
		if err != nil {
			return err
		}
		if !ok {
			fmt.Println("(not found)")
			return nil
		}
		fmt.Printf("%q\n", data)
		return nil

	case "add":
		if len(args) != 3 {
			return fmt.Errorf("usage: add <table> <key> <delta>")
		}
		delta, err := strconv.ParseInt(args[2], 10, 64)
		if err != nil {
			return err
		}
		key := u64(args[1])
		res, err := cl.Txn(
			[]storage.RowRef{{Table: args[0], Key: key}},
			[]server.Op{{Kind: server.OpAdd, Table: args[0], Key: key, Delta: delta}})
		if err != nil {
			return err
		}
		fmt.Printf("-> %d\n", beU64(res[0].Value))
		return nil

	case "scan":
		if len(args) != 3 {
			return fmt.Errorf("usage: scan <table> <lo> <hi>")
		}
		res, err := cl.Txn(nil, []server.Op{{
			Kind: server.OpScan, Table: args[0], Lo: u64(args[1]), Hi: u64(args[2]),
		}})
		if err != nil {
			return err
		}
		for _, kv := range res[0].Rows {
			fmt.Printf("%d\t%q\n", kv.Key, kv.Value)
		}
		fmt.Printf("(%d rows)\n", len(res[0].Rows))
		return nil

	case "txn":
		if len(args) != 2 {
			return fmt.Errorf("usage: txn <table> <key1,key2,...>")
		}
		var ws []storage.RowRef
		var ops []server.Op
		for _, part := range strings.Split(args[1], ",") {
			k := u64(part)
			ws = append(ws, storage.RowRef{Table: args[0], Key: k})
			ops = append(ops, server.Op{Kind: server.OpAdd, Table: args[0], Key: k, Delta: 1})
		}
		res, err := cl.Txn(ws, ops)
		if err != nil {
			return err
		}
		for i, r := range res {
			fmt.Printf("%d -> %d\n", ws[i].Key, beU64(r.Value))
		}
		return nil

	case "stats":
		st, err := cl.Stats()
		if err != nil {
			return err
		}
		fmt.Printf("commits:        %d  (per site %v)\n", st.Commits, st.PerSiteCommits)
		fmt.Printf("write txns:     %d  routed %v\n", st.WriteTxns, st.RoutedPerSite)
		fmt.Printf("read txns:      %d\n", st.ReadTxns)
		fmt.Printf("remastered:     %d txns, %d partitions moved\n", st.RemasterTxns, st.PartsMoved)
		for i, vv := range st.SiteVectors {
			fmt.Printf("site %d vector:  %v\n", i, vv)
		}
		return nil

	case "placement":
		shard := -1
		switch {
		case len(args) == 0: // whole cluster
		case len(args) == 2 && args[0] == "-shard":
			v, err := strconv.Atoi(args[1])
			if err != nil || v < 0 {
				return fmt.Errorf("usage: placement [-shard N]")
			}
			shard = v
		default:
			return fmt.Errorf("usage: placement [-shard N]")
		}
		info, err := cl.Placement()
		if err != nil {
			return err
		}
		if shard >= 0 && info.Shards <= 1 {
			return fmt.Errorf("-shard %d: the selector control plane is not sharded (-selector-shards 1)", shard)
		}
		if shard >= info.Shards && info.Shards > 1 {
			return fmt.Errorf("-shard %d: only %d router shards", shard, info.Shards)
		}
		if info.FullReplication {
			fmt.Println("placement: full replication (every partition on every site)")
		} else {
			fmt.Printf("placement: partial replication, factor [%d, %d]\n",
				info.MinReplicas, info.MaxReplicas)
		}
		if info.Shards > 1 {
			if shard >= 0 {
				fmt.Printf("router shards: %d (showing shard %d only)\n", info.Shards, shard)
			} else {
				fmt.Printf("router shards: %d\n", info.Shards)
			}
		}
		fmt.Printf("resident partitions per site: %v\n", info.Residency)
		parts := make([]uint64, 0, len(info.Masters))
		for p := range info.Masters {
			if shard >= 0 && selector.RouterShardOf(p, info.Shards) != shard {
				continue
			}
			parts = append(parts, p)
		}
		sort.Slice(parts, func(i, j int) bool { return parts[i] < parts[j] })
		for _, p := range parts {
			if reps, ok := info.Partitions[p]; ok {
				fmt.Printf("partition %-6d master=%-3d replicas=%v", p, info.Masters[p], reps)
			} else if shard >= 0 {
				fmt.Printf("partition %-6d master=%-3d", p, info.Masters[p])
			} else {
				continue // full replication, cluster-wide view: masters-only rows add noise
			}
			if info.Shards > 1 {
				fmt.Printf(" shard=%d", selector.RouterShardOf(p, info.Shards))
			}
			fmt.Println()
		}
		fmt.Printf("replica adds: %d, drops: %d\n", info.Adds, info.Drops)
		for _, d := range info.Decisions {
			verb := "drop"
			if d.Add {
				verb = "add"
			}
			fmt.Printf("%s  %-4s partition %-6d site %-3d %s\n",
				d.At.Format(time.RFC3339), verb, d.Part, d.Site, d.Reason)
		}
		return nil

	case "checkpoint":
		if len(args) != 0 {
			return fmt.Errorf("usage: checkpoint")
		}
		cp, err := cl.Checkpoint()
		if err != nil {
			return err
		}
		fmt.Printf("checkpoint %d committed\n", cp.Seq)
		for i := range cp.Rows {
			fmt.Printf("site %d:  %d rows, %d bytes snapshotted; replay low-water offset %d\n",
				i, cp.Rows[i], cp.Bytes[i], cp.LowWater[i])
		}
		return nil

	case "faults":
		spec := ""
		switch {
		case len(args) == 0: // show
		case len(args) == 1 && args[0] == "off":
			spec = "off"
		case len(args) == 2 && args[0] == "set":
			spec = args[1]
		default:
			return fmt.Errorf("usage: faults [set <spec> | off]")
		}
		f, err := cl.Faults(spec)
		if err != nil {
			return err
		}
		if !f.Enabled {
			fmt.Println("fault injection: disabled (start dynamastd with -fault-spec)")
		} else {
			fmt.Printf("fault injection: enabled (seed %d)\n", f.Seed)
			if len(f.Rules) == 0 {
				fmt.Println("rules:          (none)")
			}
			for _, r := range f.Rules {
				if r.Kind == "delay" {
					fmt.Printf("rule:           %s:%s:%v:%v\n", r.Category, r.Kind, r.Prob, r.Delay)
				} else {
					fmt.Printf("rule:           %s:%s:%v\n", r.Category, r.Kind, r.Prob)
				}
			}
			for k, n := range f.Injected {
				fmt.Printf("injected:       %-20s %d\n", k, n)
			}
		}
		fmt.Printf("rpc retries:    %d\n", f.RPCRetries)
		fmt.Printf("site failovers: %d\n", f.Failovers)
		return nil

	case "metrics":
		prom := false
		traces := 0
		for i := 0; i < len(args); i++ {
			switch args[i] {
			case "prom":
				prom = true
			case "traces":
				if i+1 >= len(args) {
					return fmt.Errorf("usage: metrics [prom] [traces N]")
				}
				i++
				traces = int(u64(args[i]))
			default:
				return fmt.Errorf("usage: metrics [prom] [traces N]")
			}
		}
		m, err := cl.Metrics(traces)
		if err != nil {
			return err
		}
		if prom {
			m.Snapshot.WritePrometheus(os.Stdout)
		} else {
			m.Snapshot.WriteText(os.Stdout)
		}
		printTraces(m.Traces)
		return nil

	case "bench":
		if len(args) != 3 {
			return fmt.Errorf("usage: bench <table> <keys> <ops>")
		}
		keys, ops := u64(args[1]), int(u64(args[2]))
		rng := rand.New(rand.NewSource(time.Now().UnixNano()))
		start := time.Now()
		for i := 0; i < ops; i++ {
			k := uint64(rng.Intn(int(keys)))
			if _, err := cl.Txn(
				[]storage.RowRef{{Table: args[0], Key: k}},
				[]server.Op{{Kind: server.OpAdd, Table: args[0], Key: k, Delta: 1}}); err != nil {
				return err
			}
		}
		d := time.Since(start)
		fmt.Printf("%d txns in %v (%.0f txn/s, avg %v)\n",
			ops, d.Round(time.Millisecond), float64(ops)/d.Seconds(),
			(d / time.Duration(ops)).Round(time.Microsecond))
		return nil
	}
	return fmt.Errorf("unknown command %q", cmd)
}

func beU64(b []byte) (v uint64) {
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return
}
