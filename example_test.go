package dynamast_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"time"

	"dynamast"
)

// Example shows the minimal lifecycle on the functional-options API: build
// a cluster, load data, run an update transaction under a context and read
// it back through the same session.
func Example() {
	cluster, err := dynamast.New(
		dynamast.WithSites(2),
		dynamast.WithPartitioner(dynamast.PartitionByRange(100)),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	cluster.CreateTable("kv")
	cluster.Load([]dynamast.LoadRow{
		{Ref: dynamast.RowRef{Table: "kv", Key: 1}, Data: []byte("one")},
	})

	ctx := context.Background()
	sess := cluster.Session(1)
	ref := dynamast.RowRef{Table: "kv", Key: 1}
	if err := sess.UpdateCtx(ctx, []dynamast.RowRef{ref}, func(tx dynamast.Tx) error {
		return tx.Write(ref, []byte("uno"))
	}); err != nil {
		log.Fatal(err)
	}
	_ = sess.ReadCtx(ctx, func(tx dynamast.Tx) error {
		data, _ := tx.Read(ref)
		fmt.Printf("%s\n", data)
		return nil
	})
	// Output: uno
}

// ExampleNew_config shows the historical construction shape: a Config
// struct is itself an Option, so code written against the previous API
// keeps compiling unchanged, and later options can refine a leading Config.
func ExampleNew_config() {
	cluster, err := dynamast.New(dynamast.Config{
		Sites:       2,
		Partitioner: dynamast.PartitionByRange(100),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	cluster.CreateTable("kv")

	sess := cluster.Session(1)
	ref := dynamast.RowRef{Table: "kv", Key: 3}
	if err := sess.Update([]dynamast.RowRef{ref}, func(tx dynamast.Tx) error {
		return tx.Write(ref, []byte("legacy"))
	}); err != nil {
		log.Fatal(err)
	}
	_ = sess.Read(func(tx dynamast.Tx) error {
		data, _ := tx.Read(ref)
		fmt.Printf("%s\n", data)
		return nil
	})
	// Output: legacy
}

// ExampleNew_durable builds a durable cluster: updates are redo-logged
// under the directory, and a background checkpointer bounds how much log a
// restart must replay (see Cluster.Recover).
func ExampleNew_durable() {
	dir, err := os.MkdirTemp("", "dynamast-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cluster, err := dynamast.New(
		dynamast.WithSites(2),
		dynamast.WithPartitioner(dynamast.PartitionByRange(100)),
		dynamast.WithDurableDir(dir),
		dynamast.WithCheckpointEvery(time.Minute),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	cluster.CreateTable("kv")

	ref := dynamast.RowRef{Table: "kv", Key: 42}
	sess := cluster.Session(1)
	if err := sess.Update([]dynamast.RowRef{ref}, func(tx dynamast.Tx) error {
		return tx.Write(ref, []byte("durable"))
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("committed durably")
	// Output: committed durably
}

// ExampleCluster_Session demonstrates remastering: a write set spanning two
// partitions whose masters start at different sites is co-located before
// the transaction executes at a single site. A Config carrying the initial
// placement mixes freely with With-options.
func ExampleCluster_Session() {
	cluster, err := dynamast.New(
		// Partition 0 starts at site 0 and partition 1 at site 1.
		dynamast.Config{InitialMaster: func(part uint64) int { return int(part) % 2 }},
		dynamast.WithSites(2),
		dynamast.WithPartitioner(dynamast.PartitionByRange(100)),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	cluster.CreateTable("kv")
	cluster.Load([]dynamast.LoadRow{
		{Ref: dynamast.RowRef{Table: "kv", Key: 10}, Data: []byte("a")},
		{Ref: dynamast.RowRef{Table: "kv", Key: 110}, Data: []byte("b")},
	})

	sess := cluster.Session(7)
	ws := []dynamast.RowRef{{Table: "kv", Key: 10}, {Table: "kv", Key: 110}}
	if err := sess.Update(ws, func(tx dynamast.Tx) error {
		for _, r := range ws {
			if err := tx.Write(r, []byte("x")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	m := cluster.Group().Metrics()
	fmt.Printf("remastered %d transaction(s); partitions co-located: %v\n",
		m.RemasterTxns, cluster.Group().MasterOf(0) == cluster.Group().MasterOf(1))
	// Output: remastered 1 transaction(s); partitions co-located: true
}

// ExampleSession_Read shows read-only transactions running at any replica
// under the session's freshness guarantee.
func ExampleSession_Read() {
	cluster, err := dynamast.New(
		dynamast.WithSites(3),
		dynamast.WithPartitioner(dynamast.PartitionByRange(100)),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	cluster.CreateTable("kv")
	var rows []dynamast.LoadRow
	for k := uint64(0); k < 10; k++ {
		rows = append(rows, dynamast.LoadRow{
			Ref: dynamast.RowRef{Table: "kv", Key: k}, Data: []byte{byte(k)},
		})
	}
	cluster.Load(rows)

	sess := cluster.Session(1)
	_ = sess.Read(func(tx dynamast.Tx) error {
		fmt.Printf("scanned %d rows\n", len(tx.Scan("kv", 0, 10)))
		return nil
	})
	// Output: scanned 10 rows
}

// ExampleRetryable is the canonical client retry loop: transient faults
// (a site mid-failover, a lost connection, a stale remaster epoch) surface
// as retryable errors, while logic errors abort immediately. The sentinels
// ErrSiteDown, ErrStaleEpoch and ErrConnLost support errors.Is even
// through wrapping.
func ExampleRetryable() {
	cluster, err := dynamast.New(
		dynamast.WithSites(2),
		dynamast.WithPartitioner(dynamast.PartitionByRange(100)),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	cluster.CreateTable("kv")

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	sess := cluster.Session(1)
	ref := dynamast.RowRef{Table: "kv", Key: 9}

	for attempt := 1; ; attempt++ {
		err := sess.UpdateCtx(ctx, []dynamast.RowRef{ref}, func(tx dynamast.Tx) error {
			return tx.Write(ref, []byte("ok"))
		})
		switch {
		case err == nil:
			fmt.Println("committed")
		case errors.Is(err, dynamast.ErrSiteDown) && attempt < 5:
			continue // transient: the failover will re-home the partition
		case dynamast.Retryable(err) && attempt < 5:
			continue
		default:
			log.Fatal(err) // logic error, context expiry, or out of attempts
		}
		break
	}
	// Output: committed
}
