// Banking: a SmallBank-style application on the public API. Concurrent
// tellers transfer money between accounts whose partitions start scattered
// across sites; DynaMast remasters hot account groups together, every
// transfer runs at exactly one site, and the global balance invariant
// holds throughout.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"dynamast"
)

const (
	accounts       = 5_000
	initialBalance = 1_000
	tellers        = 8
	transfersEach  = 250
)

func ref(acct uint64) dynamast.RowRef {
	return dynamast.RowRef{Table: "accounts", Key: acct}
}

func encode(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

func main() {
	cluster, err := dynamast.New(dynamast.Config{
		Sites:       4,
		Partitioner: dynamast.PartitionByRange(50), // 50 accounts per branch
		// Balance-dominant weights keep mastership spread: transfers pair
		// random branches, so without a strong balance term co-location
		// would eventually merge all branches onto one site.
		Weights: dynamast.YCSBWeights(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	cluster.CreateTable("accounts")
	rows := make([]dynamast.LoadRow, 0, accounts)
	for a := uint64(0); a < accounts; a++ {
		rows = append(rows, dynamast.LoadRow{Ref: ref(a), Data: encode(initialBalance)})
	}
	cluster.Load(rows)

	var wg sync.WaitGroup
	for t := 0; t < tellers; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(t)))
			sess := cluster.Session(t)
			for i := 0; i < transfersEach; i++ {
				src := uint64(rng.Intn(accounts))
				dst := uint64(rng.Intn(accounts))
				if src == dst {
					continue
				}
				amount := uint64(1 + rng.Intn(100))
				ws := []dynamast.RowRef{ref(src), ref(dst)}
				err := sess.Update(ws, func(tx dynamast.Tx) error {
					sraw, ok := tx.Read(ref(src))
					if !ok {
						return fmt.Errorf("account %d missing", src)
					}
					draw, ok := tx.Read(ref(dst))
					if !ok {
						return fmt.Errorf("account %d missing", dst)
					}
					sbal := binary.BigEndian.Uint64(sraw)
					if sbal < amount {
						return nil // insufficient funds; commit no-op
					}
					dbal := binary.BigEndian.Uint64(draw)
					if err := tx.Write(ref(src), encode(sbal-amount)); err != nil {
						return err
					}
					return tx.Write(ref(dst), encode(dbal+amount))
				})
				if err != nil {
					log.Fatalf("teller %d: %v", t, err)
				}
			}
		}(t)
	}
	wg.Wait()

	// Audit: the sum of all balances must equal the minted total. The
	// audit is a read-only transaction served by any replica; waiting for
	// the cluster to quiesce first lets it run against any site.
	if err := cluster.WaitQuiesced(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	auditor := cluster.Session(999)
	var total uint64
	err = auditor.Read(func(tx dynamast.Tx) error {
		total = 0
		for _, kv := range tx.Scan("accounts", 0, accounts) {
			total += binary.BigEndian.Uint64(kv.Value)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	want := uint64(accounts * initialBalance)
	fmt.Printf("audit: total=%d want=%d ok=%v\n", total, want, total == want)

	m := cluster.Group().Metrics()
	st := cluster.Stats()
	fmt.Printf("transfers committed: %d (per site %v)\n", st.Commits, st.PerSiteCommits)
	fmt.Printf("remastered: %d of %d write txns (%.1f%%)\n",
		m.RemasterTxns, m.WriteTxns, 100*float64(m.RemasterTxns)/float64(m.WriteTxns))
	fmt.Println("(transfers pair uniformly random branches, so most cannot be")
	fmt.Println(" single-sited in advance — each one remasters, runs at exactly")
	fmt.Println(" one site, and the balance term keeps the branches spread)")
	if total != want {
		log.Fatal("INVARIANT VIOLATED")
	}
}
