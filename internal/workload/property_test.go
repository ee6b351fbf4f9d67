package workload

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dynamast/internal/storage"
)

// Property: every TPC-C key encoder round-trips through the partitioner to
// the warehouse that produced it, for arbitrary in-range inputs.
func TestQuickTPCCKeysPartitionToTheirWarehouse(t *testing.T) {
	w := NewTPCC(TPCCConfig{Warehouses: 16, Districts: 10, CustomersPerD: 100, Items: 2000})
	p := w.Partitioner()
	f := func(whRaw, dRaw, cRaw, iRaw uint16, oRaw uint32, lineRaw uint8) bool {
		wh := int(whRaw) % 16
		d := int(dRaw) % 10
		c := int(cRaw) % 100
		i := int(iRaw) % 2000
		o := uint64(oRaw) % maxOrders
		line := int(lineRaw) % maxOrderLines
		okey := w.oKey(wh, d, o)
		refs := []storage.RowRef{
			{Table: TableWarehouse, Key: uint64(wh)},
			{Table: TableDistrict, Key: w.dKey(wh, d)},
			{Table: TableCustomer, Key: w.cKey(wh, d, c)},
			{Table: TableStock, Key: w.sKey(wh, i)},
			{Table: TableOrder, Key: okey},
			{Table: TableNewOrder, Key: okey},
			{Table: TableOrderLine, Key: w.olKey(okey, line)},
			{Table: TableHistory, Key: w.hKey(wh, d, uint64(oRaw))},
		}
		for _, ref := range refs {
			if int(p(ref)/whPartStride) != wh {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: district-scoped tables (customer, order, order line, new
// order, history) land in the same partition group as their district.
func TestQuickTPCCDistrictGrouping(t *testing.T) {
	w := NewTPCC(TPCCConfig{Warehouses: 8, Districts: 10, CustomersPerD: 50, Items: 1000})
	p := w.Partitioner()
	f := func(whRaw, dRaw, cRaw uint16, oRaw uint32) bool {
		wh := int(whRaw) % 8
		d := int(dRaw) % 10
		c := int(cRaw) % 50
		o := uint64(oRaw) % maxOrders
		want := p(storage.RowRef{Table: TableDistrict, Key: w.dKey(wh, d)})
		okey := w.oKey(wh, d, o)
		return p(storage.RowRef{Table: TableCustomer, Key: w.cKey(wh, d, c)}) == want &&
			p(storage.RowRef{Table: TableOrder, Key: okey}) == want &&
			p(storage.RowRef{Table: TableOrderLine, Key: w.olKey(okey, 3)}) == want &&
			p(storage.RowRef{Table: TableHistory, Key: w.hKey(wh, d, uint64(oRaw))}) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the YCSB placement assigns every partition a site in [0, m)
// and assigns whole placement blocks to a single site.
func TestQuickYCSBPlacementBlocks(t *testing.T) {
	f := func(keysRaw uint16, mRaw, partRaw uint8) bool {
		keys := (uint64(keysRaw)%1000 + 10) * 100
		m := int(mRaw)%15 + 1
		w := NewYCSB(YCSBConfig{Keys: keys})
		place := w.Placement(m)
		part := uint64(partRaw) % w.parts
		site := place(part)
		if site < 0 || site >= m {
			return false
		}
		// Same block => same site.
		blockStart := part / PlacementBlock * PlacementBlock
		return place(blockStart) == site
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: generated YCSB write sets always reference keys inside the key
// space, for arbitrary configurations.
func TestQuickYCSBWriteSetsInRange(t *testing.T) {
	f := func(seed int64, keysRaw uint16, mix uint8) bool {
		keys := (uint64(keysRaw)%500 + 5) * 100
		w := NewYCSB(YCSBConfig{Keys: keys, RMWPercent: int(mix)%100 + 1})
		g := w.NewGenerator(int(seed)%64, seed)
		for i := 0; i < 20; i++ {
			txn := g.Next()
			for _, ref := range txn.WriteSet {
				if ref.Key >= keys {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: SmallBank transfers preserve the total balance in a model
// execution for any interleaving of generated transactions.
func TestQuickSmallBankConservation(t *testing.T) {
	w := NewSmallBank(SmallBankConfig{Customers: 200})
	rows := w.LoadRows()
	tx := newFakeTx(rows)
	var initial uint64
	for _, r := range rows {
		if r.Ref.Table == TableChecking {
			initial += getU64(r.Data, 0)
		}
	}
	g := w.NewGenerator(1, 99)
	moved := 0
	for i := 0; i < 300; i++ {
		txn := g.Next()
		if txn.Kind != "multi-update" {
			continue
		}
		moved++
		if err := txn.Run(tx); err != nil {
			t.Fatal(err)
		}
		// Fold writes back into the model state.
		for ref, data := range tx.writes {
			tx.data[ref] = data
		}
		tx.writes = map[storage.RowRef][]byte{}
	}
	if moved == 0 {
		t.Fatal("no transfers generated")
	}
	var final uint64
	for ref, data := range tx.data {
		if ref.Table == TableChecking {
			final += getU64(data, 0)
		}
	}
	if final != initial {
		t.Fatalf("checking total changed: %d -> %d", initial, final)
	}
}

// Property: the zipfian generator is deterministic per seed and bounded.
func TestQuickZipfDeterministic(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := uint64(nRaw)%1000 + 2
		a := NewZipf(rand.New(rand.NewSource(seed)), n, 0.75)
		b := NewZipf(rand.New(rand.NewSource(seed)), n, 0.75)
		for i := 0; i < 50; i++ {
			va, vb := a.Next(), b.Next()
			if va != vb || va >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
