package server

import (
	"sync"
	"testing"

	"dynamast/internal/core"
	"dynamast/internal/storage"
)

func startServer(t *testing.T) (*core.Cluster, string) {
	t.Helper()
	cluster, err := core.NewCluster(core.Config{
		Sites:       2,
		Partitioner: func(ref storage.RowRef) uint64 { return ref.Key / 100 },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, err := Serve(cluster, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		cluster.Close()
	})
	return cluster, addr.String()
}

func TestPutGetOverRPC(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put("kv", 7, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, ok, err := cl.Get("kv", 7)
	if err != nil || !ok || string(data) != "hello" {
		t.Fatalf("get = %q %v %v", data, ok, err)
	}
	if _, ok, _ := cl.Get("kv", 8); ok {
		t.Fatal("missing key found")
	}
}

func TestMultiOpTxnAtomicity(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	ws := []storage.RowRef{{Table: "kv", Key: 1}, {Table: "kv", Key: 150}}
	res, err := cl.Txn(ws, []Op{
		{Kind: OpAdd, Table: "kv", Key: 1, Delta: 5},
		{Kind: OpAdd, Table: "kv", Key: 150, Delta: 7},
		{Kind: OpGet, Table: "kv", Key: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res[2].Found || res[2].Value[7] != 5 {
		t.Fatalf("read-own-write over RPC: %+v", res[2])
	}
	// A read-only scan sees both rows.
	res, err = cl.Txn(nil, []Op{{Kind: OpScan, Table: "kv", Lo: 0, Hi: 200}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Rows) != 2 {
		t.Fatalf("scan rows = %d", len(res[0].Rows))
	}
}

func TestConcurrentRemoteCounters(t *testing.T) {
	cluster, addr := startServer(t)
	cluster.CreateTable("kv")
	const clients, adds = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(addr, c)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			ws := []storage.RowRef{{Table: "kv", Key: 9}}
			for i := 0; i < adds; i++ {
				if _, err := cl.Txn(ws, []Op{{Kind: OpAdd, Table: "kv", Key: 9, Delta: 1}}); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	cl, err := Dial(addr, 99)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	data, ok, err := cl.Get("kv", 9)
	if err != nil || !ok {
		t.Fatalf("get: %v %v", ok, err)
	}
	var v uint64
	for _, b := range data {
		v = v<<8 | uint64(b)
	}
	if v != clients*adds {
		t.Fatalf("counter = %d, want %d", v, clients*adds)
	}
}

func TestUnknownOpRejected(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.CreateTable("kv")
	if _, err := cl.Txn(nil, []Op{{Kind: 99}}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestSessionReuseSameClientID(t *testing.T) {
	_, addr := startServer(t)
	a, _ := Dial(addr, 5)
	defer a.Close()
	b, _ := Dial(addr, 5) // same session id: same server-side session
	defer b.Close()
	a.CreateTable("kv")
	if err := a.Put("kv", 3, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Session freshness: connection b (same client id) must see a's write.
	data, ok, err := b.Get("kv", 3)
	if err != nil || !ok || string(data) != "x" {
		t.Fatalf("cross-connection session read: %q %v %v", data, ok, err)
	}
}

func TestStatsRPC(t *testing.T) {
	cluster, addr := startServer(t)
	cluster.CreateTable("kv")
	cl, err := Dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Put("kv", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Commits != 1 || st.WriteTxns != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.SiteVectors) != 2 || len(st.PerSiteCommits) != 2 {
		t.Fatalf("stats shape = %+v", st)
	}
}

// TestStatsRPCShardedCountsEveryShard checks that the stats reply sums the
// routing counters over every router shard, not only shard 0.
func TestStatsRPCShardedCountsEveryShard(t *testing.T) {
	cluster, err := core.NewCluster(core.Config{
		Sites:          2,
		Partitioner:    func(ref storage.RowRef) uint64 { return ref.Key / 100 },
		SelectorShards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, err := Serve(cluster, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		cluster.Close()
	})
	cluster.CreateTable("kv")
	cl, err := Dial(addr.String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	g := cluster.Group()
	written := make(map[int]int) // shard -> writes
	for p := uint64(0); len(written) < g.Shards(); p++ {
		if err := cl.Put("kv", p*100, []byte("x")); err != nil {
			t.Fatal(err)
		}
		written[g.ShardOf(p)]++
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	m := g.Metrics()
	if st.WriteTxns != m.WriteTxns || m.WriteTxns == 0 {
		t.Fatalf("stats reply counts %d writes, Group().Metrics() %d (writes per shard %v)",
			st.WriteTxns, m.WriteTxns, written)
	}
}

func TestCheckpointRPC(t *testing.T) {
	cluster, err := core.NewCluster(core.Config{
		Sites:       2,
		Partitioner: func(ref storage.RowRef) uint64 { return ref.Key / 100 },
		WALDir:      t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, err := Serve(cluster, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		cluster.Close()
	})
	cl, err := Dial(addr.String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 50; k++ {
		if err := cl.Put("kv", k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := cl.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Seq == 0 || len(cp.Rows) != 2 {
		t.Fatalf("checkpoint reply: %+v", cp)
	}
	if cp.Rows[0]+cp.Rows[1] == 0 {
		t.Fatal("checkpoint snapshotted zero rows")
	}
}

func TestCheckpointRPCWithoutWALDir(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Checkpoint(); err == nil {
		t.Fatal("checkpoint without a durable directory must error")
	}
}

// TestScanReplyOutlivesTransaction drives scans and updates through two
// connections that share one client id (one server-side session). A scan's
// rows live in a buffer its transaction owns and recycles at commit, while
// the reply is encoded after commit — the handler must have copied them.
// Every reply has to carry exactly the loaded keys, each with a value some
// update wrote for that key.
func TestScanReplyOutlivesTransaction(t *testing.T) {
	const rows, rounds = 150, 200
	_, addr := startServer(t)
	scanner, err := Dial(addr, 9)
	if err != nil {
		t.Fatal(err)
	}
	defer scanner.Close()
	writer, err := Dial(addr, 9)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	if err := writer.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < rows; k++ {
		if err := writer.Put("kv", k, []byte{byte(k), 0}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= rounds; i++ {
			k := uint64(i*7) % rows
			if err := writer.Put("kv", k, []byte{byte(k), byte(i)}); err != nil {
				t.Errorf("update %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		res, err := scanner.Txn(nil, []Op{{Kind: OpScan, Table: "kv", Lo: 0, Hi: rows}})
		if err != nil {
			t.Fatal(err)
		}
		got := res[0].Rows
		if len(got) != rows {
			t.Fatalf("scan %d: %d rows, want %d", i, len(got), rows)
		}
		for j, kv := range got {
			if kv.Key != uint64(j) || len(kv.Value) != 2 || kv.Value[0] != byte(j) {
				t.Fatalf("scan %d: row %d = %d/%v", i, j, kv.Key, kv.Value)
			}
		}
	}
	wg.Wait()
}
