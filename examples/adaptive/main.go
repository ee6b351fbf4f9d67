// Adaptive: demonstrates DynaMast learning a changing workload (the
// paper's §VI-B5). Phase 1 drives co-accessed key groups from one
// correlation pattern; phase 2 switches to a different pattern. The site
// selector's statistics expire old samples, it re-learns the correlations,
// and throughput recovers as remastering co-locates the new groups.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"dynamast"
)

const (
	sites      = 4
	partitions = 200
	partSize   = 100
	clients    = 32
)

func key(part uint64, r *rand.Rand) uint64 {
	return part*partSize + uint64(r.Intn(partSize))
}

// drive runs txns that co-access partition p with pair(p) for the given
// duration and reports throughput and the remaster count delta.
func drive(cluster *dynamast.Cluster, pair func(uint64) uint64, d time.Duration, label string) {
	start := time.Now()
	deadline := start.Add(d)
	startMetrics := cluster.Group().Metrics()
	done := make(chan int, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			r := rand.New(rand.NewSource(int64(c) + 42))
			sess := cluster.Session(c)
			n := 0
			for time.Now().Before(deadline) {
				p := uint64(r.Intn(partitions))
				ws := []dynamast.RowRef{
					{Table: "kv", Key: key(p, r)},
					{Table: "kv", Key: key(pair(p), r)},
				}
				err := sess.Update(ws, func(tx dynamast.Tx) error {
					for _, ref := range ws {
						if err := tx.Write(ref, []byte("x")); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					log.Fatal(err)
				}
				n++
			}
			done <- n
		}(c)
	}
	total := 0
	for c := 0; c < clients; c++ {
		total += <-done
	}
	m := cluster.Group().Metrics()
	fmt.Printf("%-22s %6.0f txn/s   remastered %4d txns, moved %4d partitions\n",
		label, float64(total)/d.Seconds(),
		m.RemasterTxns-startMetrics.RemasterTxns,
		m.PartsMoved-startMetrics.PartsMoved)
}

func main() {
	cluster, err := dynamast.New(dynamast.Config{
		Sites:       sites,
		Partitioner: dynamast.PartitionByRange(partSize),
		Weights:     dynamast.Weights{Balance: 1e6, Delay: 0.5, IntraTxn: 3},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	cluster.CreateTable("kv")
	var rows []dynamast.LoadRow
	for k := uint64(0); k < partitions*partSize; k++ {
		rows = append(rows, dynamast.LoadRow{Ref: dynamast.RowRef{Table: "kv", Key: k}, Data: []byte("0")})
	}
	cluster.Load(rows)

	// Phase 1: partition p is always co-written with its "offset partner"
	// p+100 — one hundred disjoint pairs the selector has never seen.
	offset := func(p uint64) uint64 { return (p + partitions/2) % partitions }
	fmt.Println("phase 1: offset-pair correlations (learning from scratch)")
	for i := 0; i < 3; i++ {
		drive(cluster, offset, 2*time.Second, fmt.Sprintf("  window %d", i+1))
	}

	// Phase 2: the correlation flips to a "mirror" pattern — p is now
	// co-written with partitions-1-p. Every learned pair is wrong; the
	// statistics tracker expires the stale correlations and remastering
	// re-co-locates the new pairs, after which churn returns to zero.
	mirror := func(p uint64) uint64 { return partitions - 1 - p }
	fmt.Println("phase 2: mirrored correlations (workload change)")
	for i := 0; i < 4; i++ {
		drive(cluster, mirror, 2*time.Second, fmt.Sprintf("  window %d", i+1))
	}
	fmt.Println("remastering spikes at each pattern change, then decays to zero")
	fmt.Println("once the selector has co-located the new partition pairs.")
}
