// Quickstart: build an embedded four-site DynaMast cluster, run update and
// read-only transactions through a session, and watch the cluster remaster
// data on demand.
package main

import (
	"fmt"
	"log"

	"dynamast"
)

func main() {
	// Four data sites; keys grouped into partitions of 100. The zero
	// network config means an instant wire — ideal for embedding.
	cluster, err := dynamast.New(dynamast.Config{
		Sites:       4,
		Partitioner: dynamast.PartitionByRange(100),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// Declare a table and load some rows (replicated to every site).
	cluster.CreateTable("inventory")
	var rows []dynamast.LoadRow
	for k := uint64(0); k < 1000; k++ {
		rows = append(rows, dynamast.LoadRow{
			Ref:  dynamast.RowRef{Table: "inventory", Key: k},
			Data: []byte(fmt.Sprintf("sku-%04d qty=100", k)),
		})
	}
	cluster.Load(rows)

	// A session provides strong-session snapshot isolation: its reads
	// always reflect its own earlier writes, at whichever replica serves
	// them.
	sess := cluster.Session(1)

	// An update transaction declares its write set up front; the site
	// selector remasters the written partitions to one site if their
	// masters are split, then the transaction runs entirely at that site.
	writeSet := []dynamast.RowRef{
		{Table: "inventory", Key: 42},  // partition 0, initially at site 0
		{Table: "inventory", Key: 142}, // partition 1, initially at site 1
	}
	err = sess.Update(writeSet, func(tx dynamast.Tx) error {
		for _, ref := range writeSet {
			old, _ := tx.Read(ref)
			if err := tx.Write(ref, append(old[:0:0], "restocked"...)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// Read-only transactions run at any replica without remastering.
	err = sess.Read(func(tx dynamast.Tx) error {
		data, ok := tx.Read(dynamast.RowRef{Table: "inventory", Key: 42})
		fmt.Printf("key 42 -> %q (found=%v)\n", data, ok)
		rows := tx.Scan("inventory", 40, 45)
		fmt.Printf("scan [40,45) -> %d rows\n", len(rows))
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	m := cluster.Group().Metrics()
	fmt.Printf("write txns: %d, remastered: %d, partitions moved: %d\n",
		m.WriteTxns, m.RemasterTxns, m.PartsMoved)
	for p := uint64(0); p < 10; p++ {
		fmt.Printf("partition %d mastered at site %d\n", p, cluster.Group().MasterOf(p))
	}
}
