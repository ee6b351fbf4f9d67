// Cluster: runs DynaMast behind a real TCP server (the same wire protocol
// cmd/dynamastd serves) and drives it with concurrent remote clients over
// binary-codec RPC — demonstrating that the system is a networked database,
// not only an embeddable library.
package main

import (
	"fmt"
	"log"
	"sync"

	"dynamast"
	"dynamast/internal/server"
	"dynamast/internal/storage"
)

func main() {
	cluster, err := dynamast.New(dynamast.Config{
		Sites:       3,
		Partitioner: dynamast.PartitionByRange(100),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	srv, addr, err := server.Serve(cluster, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Println("dynamast serving on", addr)

	// Remote clients: each increments shared counters transactionally.
	const clients, increments = 4, 50
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := server.Dial(addr.String(), c)
			if err != nil {
				log.Fatal(err)
			}
			defer cl.Close()
			if c == 0 {
				if err := cl.CreateTable("counters"); err != nil {
					log.Fatal(err)
				}
			}
			ws := []storage.RowRef{
				{Table: "counters", Key: 1},
				{Table: "counters", Key: 101}, // different partition
			}
			for i := 0; i < increments; i++ {
				_, err := cl.Txn(ws, []server.Op{
					{Kind: server.OpAdd, Table: "counters", Key: 1, Delta: 1},
					{Kind: server.OpAdd, Table: "counters", Key: 101, Delta: 2},
				})
				if err != nil {
					log.Fatal(err)
				}
			}
		}(c)
	}
	// Table creation races with the other clients' first transactions;
	// give client 0 a head start by creating the table eagerly here too.
	cluster.CreateTable("counters")
	wg.Wait()

	reader, err := server.Dial(addr.String(), 99)
	if err != nil {
		log.Fatal(err)
	}
	defer reader.Close()
	res, err := reader.Txn(nil, []server.Op{
		{Kind: server.OpGet, Table: "counters", Key: 1},
		{Kind: server.OpGet, Table: "counters", Key: 101},
	})
	if err != nil {
		log.Fatal(err)
	}
	dec := func(b []byte) (v uint64) {
		for _, x := range b {
			v = v<<8 | uint64(x)
		}
		return
	}
	c1, c2 := dec(res[0].Value), dec(res[1].Value)
	fmt.Printf("counter1=%d (want %d)  counter2=%d (want %d)\n",
		c1, clients*increments, c2, 2*clients*increments)
	if c1 != clients*increments || c2 != 2*clients*increments {
		log.Fatal("LOST UPDATES over the network path")
	}
	st := cluster.Stats()
	fmt.Printf("commits=%d per-site=%v remasters=%d\n", st.Commits, st.PerSiteCommits, st.Remasters)
}
