package workload

import (
	"math"
	"math/rand"
	"testing"

	"dynamast/internal/storage"
	"dynamast/internal/systems"
)

func TestZipfSkew(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	z := NewZipf(r, 1000, 0.75)
	counts := make([]int, 1000)
	const n = 50_000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 must be far hotter than the median rank.
	if counts[0] < 20*counts[500] {
		t.Fatalf("insufficient skew: rank0=%d rank500=%d", counts[0], counts[500])
	}
	// The head (top 10%) should carry the majority of accesses at 0.75.
	head := 0
	for i := 0; i < 100; i++ {
		head += counts[i]
	}
	if float64(head)/n < 0.4 {
		t.Fatalf("head weight = %.2f, want >= 0.4", float64(head)/n)
	}
}

func TestZipfUniformishTail(t *testing.T) {
	// Small theta approaches uniform; sanity-check no crash and coverage.
	r := rand.New(rand.NewSource(2))
	z := NewZipf(r, 10, 0.1)
	seen := map[uint64]bool{}
	for i := 0; i < 10_000; i++ {
		seen[z.Next()] = true
	}
	if len(seen) != 10 {
		t.Fatalf("only %d of 10 values drawn", len(seen))
	}
}

func TestBinomialMean(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	sum := 0
	const n = 20_000
	for i := 0; i < n; i++ {
		s := Binomial(r, 5, 0.5)
		if s < 0 || s > 5 {
			t.Fatalf("binomial out of range: %d", s)
		}
		sum += s
	}
	mean := float64(sum) / n
	if math.Abs(mean-2.5) > 0.05 {
		t.Fatalf("binomial mean = %.3f, want 2.5", mean)
	}
}

func TestNeighborOffsetRange(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	counts := map[int]int{}
	for i := 0; i < 10_000; i++ {
		o := NeighborOffset(r)
		if o < -3 || o > 2 {
			t.Fatalf("offset %d out of range", o)
		}
		counts[o]++
	}
	// Offset 0 (three successes) is the mode.
	if counts[0] < counts[-2] || counts[0] < counts[2] {
		t.Fatalf("offset distribution not centred: %v", counts)
	}
}

func TestClampPartition(t *testing.T) {
	if clampPartition(-1, 10) != 9 {
		t.Error("negative wrap broken")
	}
	if clampPartition(12, 10) != 2 {
		t.Error("overflow wrap broken")
	}
	if clampPartition(5, 10) != 5 {
		t.Error("identity broken")
	}
}

func TestPutGetU64(t *testing.T) {
	buf := make([]byte, 16)
	putU64(buf, 4, 0xDEADBEEFCAFE)
	if getU64(buf, 4) != 0xDEADBEEFCAFE {
		t.Fatal("u64 round trip failed")
	}
}

func TestYCSBLoadAndPartitioning(t *testing.T) {
	w := NewYCSB(YCSBConfig{Keys: 1000, PartitionSize: 100})
	rows := w.LoadRows()
	if len(rows) != 1000 {
		t.Fatalf("LoadRows = %d", len(rows))
	}
	p := w.Partitioner()
	if p(storage.RowRef{Table: YCSBTable, Key: 250}) != 2 {
		t.Fatal("partitioner wrong")
	}
	if w.parts != 10 {
		t.Fatalf("parts = %d", w.parts)
	}
	place := w.Placement(2)
	// Blocks of PlacementBlock partitions round-robin across sites.
	if place(0) != 0 || place(PlacementBlock) != 1 || place(2*PlacementBlock) != 0 {
		t.Fatalf("placement: %d %d %d", place(0), place(PlacementBlock), place(2*PlacementBlock))
	}
	// Every partition maps to a valid site.
	for part := uint64(0); part < 100; part++ {
		if s := place(part); s < 0 || s >= 2 {
			t.Fatalf("partition %d -> site %d", part, s)
		}
	}
}

func TestYCSBGeneratorShapes(t *testing.T) {
	w := NewYCSB(YCSBConfig{Keys: 10_000, RMWPercent: 50})
	g := w.NewGenerator(1, 42)
	rmw, scan := 0, 0
	for i := 0; i < 2000; i++ {
		txn := g.Next()
		switch txn.Kind {
		case "rmw":
			rmw++
			if !txn.Update || len(txn.WriteSet) != 3 {
				t.Fatalf("rmw txn shape: update=%v ws=%d", txn.Update, len(txn.WriteSet))
			}
			for _, ref := range txn.WriteSet {
				if ref.Key >= 10_000 {
					t.Fatalf("rmw key %d out of range", ref.Key)
				}
			}
		case "scan":
			scan++
			if txn.Update || len(txn.WriteSet) != 0 {
				t.Fatalf("scan txn shape: %+v", txn)
			}
		default:
			t.Fatalf("unknown kind %q", txn.Kind)
		}
	}
	if rmw < 800 || rmw > 1200 {
		t.Fatalf("rmw share %d/2000 off target", rmw)
	}
	_ = scan
}

func TestYCSBRMWNeighborLocality(t *testing.T) {
	w := NewYCSB(YCSBConfig{Keys: 100_000})
	g := w.NewGenerator(3, 99).(*ycsbGen)
	part := w.Partitioner()
	for i := 0; i < 500; i++ {
		txn := g.rmw()
		base := part(txn.WriteSet[0])
		for _, ref := range txn.WriteSet[1:] {
			p := part(ref)
			d := int64(p) - int64(base)
			// Offsets wrap at the partition-space edges.
			if d > 3 && d < int64(w.parts)-3 {
				t.Fatalf("neighbor partition %d too far from base %d", p, base)
			}
		}
	}
}

func TestYCSBShuffledChangesCorrelations(t *testing.T) {
	plain := NewYCSB(YCSBConfig{Keys: 100_000})
	shuf := NewYCSB(YCSBConfig{Keys: 100_000, Shuffled: true, ShuffleSeed: 5})
	identical := 0
	for i := range plain.perm {
		if plain.perm[i] != shuf.perm[i] {
			break
		}
		identical++
	}
	if identical == len(plain.perm) {
		t.Fatal("shuffle had no effect")
	}
	// The shuffled workload's rmw write sets are usually not contiguous.
	g := shuf.NewGenerator(0, 1).(*ycsbGen)
	spread := 0
	for i := 0; i < 200; i++ {
		txn := g.rmw()
		p0 := txn.WriteSet[0].Key / 100
		for _, ref := range txn.WriteSet[1:] {
			p := ref.Key / 100
			d := int64(p) - int64(p0)
			if d < -3 || d > 3 {
				spread++
			}
		}
	}
	if spread == 0 {
		t.Fatal("shuffled correlations still contiguous")
	}
}

func TestTPCCLoadShapes(t *testing.T) {
	w := NewTPCC(TPCCConfig{Warehouses: 2, Districts: 2, CustomersPerD: 10, Items: 50, InitialOrders: 3})
	rows := w.LoadRows()
	counts := map[string]int{}
	for _, r := range rows {
		counts[r.Ref.Table]++
	}
	if counts[TableWarehouse] != 2 || counts[TableDistrict] != 4 ||
		counts[TableCustomer] != 40 || counts[TableItem] != 50 ||
		counts[TableStock] != 100 || counts[TableOrder] != 12 {
		t.Fatalf("row counts: %v", counts)
	}
	if counts[TableOrderLine] < 12*5 {
		t.Fatalf("too few order lines: %d", counts[TableOrderLine])
	}
}

func TestTPCCPartitionerByWarehouse(t *testing.T) {
	w := NewTPCC(TPCCConfig{Warehouses: 4, Districts: 10, CustomersPerD: 100, Items: 2000})
	p := w.Partitioner()
	// Every row's partition group belongs to its warehouse's stride.
	cases := []struct {
		ref storage.RowRef
		wh  uint64
	}{
		{storage.RowRef{Table: TableWarehouse, Key: 3}, 3},
		{storage.RowRef{Table: TableDistrict, Key: w.dKey(2, 7)}, 2},
		{storage.RowRef{Table: TableCustomer, Key: w.cKey(1, 9, 99)}, 1},
		{storage.RowRef{Table: TableStock, Key: w.sKey(3, 1999)}, 3},
		{storage.RowRef{Table: TableOrder, Key: w.oKey(2, 3, 1234)}, 2},
		{storage.RowRef{Table: TableOrderLine, Key: w.olKey(w.oKey(1, 0, 7), 15)}, 1},
		{storage.RowRef{Table: TableNewOrder, Key: w.oKey(3, 9, 42)}, 3},
		{storage.RowRef{Table: TableHistory, Key: w.hKey(2, 3, 12345)}, 2},
	}
	for _, c := range cases {
		if got := p(c.ref) / whPartStride; got != c.wh {
			t.Errorf("%s/%d -> warehouse %d, want %d", c.ref.Table, c.ref.Key, got, c.wh)
		}
	}
	// A district's customer/order/orderline rows share its partition group.
	dpart := p(storage.RowRef{Table: TableDistrict, Key: w.dKey(2, 7)})
	if p(storage.RowRef{Table: TableCustomer, Key: w.cKey(2, 7, 5)}) != dpart {
		t.Error("customer not grouped with its district")
	}
	if p(storage.RowRef{Table: TableOrder, Key: w.oKey(2, 7, 99)}) != dpart {
		t.Error("order not grouped with its district")
	}
	if p(storage.RowRef{Table: TableOrderLine, Key: w.olKey(w.oKey(2, 7, 99), 3)}) != dpart {
		t.Error("order line not grouped with its district")
	}
	// Stock groups are distinct from district groups.
	if p(storage.RowRef{Table: TableStock, Key: w.sKey(2, 0)}) == dpart {
		t.Error("stock grouped with a district")
	}
	// The static placement maps every group of a warehouse to one site.
	place := w.Placement(3)
	for sub := uint64(0); sub < whPartStride; sub++ {
		if place(2*whPartStride+sub) != place(2*whPartStride) {
			t.Fatal("placement splits a warehouse")
		}
	}
	// Item rows live in their own partition space.
	if got := p(storage.RowRef{Table: TableItem, Key: 5}); got < itemPartition {
		t.Errorf("item partition %d not in item space", got)
	}
}

func TestTPCCNewOrderWriteSetSpansSupplyWarehouses(t *testing.T) {
	w := NewTPCC(TPCCConfig{Warehouses: 4, CrossNewOrderPct: 100})
	g := w.NewGenerator(0, 7).(*tpccGen)
	p := w.Partitioner()
	cross := 0
	for i := 0; i < 50; i++ {
		txn := g.newOrder()
		whs := map[uint64]bool{}
		for _, ref := range txn.WriteSet {
			whs[p(ref)/whPartStride] = true
		}
		if len(whs) > 1 {
			cross++
		}
	}
	if cross != 50 {
		t.Fatalf("cross-warehouse New-Orders = %d/50 at 100%%", cross)
	}

	w2 := NewTPCC(TPCCConfig{Warehouses: 4, CrossNewOrderPct: -1}) // negative -> never
	g2 := w2.NewGenerator(0, 7).(*tpccGen)
	for i := 0; i < 50; i++ {
		txn := g2.newOrder()
		whs := map[uint64]bool{}
		for _, ref := range txn.WriteSet {
			whs[p(ref)/whPartStride] = true
		}
		if len(whs) != 1 {
			t.Fatal("0% cross still produced a multi-warehouse write set")
		}
	}
}

func TestTPCCOrderIDsUnique(t *testing.T) {
	w := NewTPCC(TPCCConfig{Warehouses: 1, Districts: 1})
	g := w.NewGenerator(0, 1).(*tpccGen)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		txn := g.newOrder()
		var okey uint64
		for _, ref := range txn.WriteSet {
			if ref.Table == TableOrder {
				okey = ref.Key
			}
		}
		if seen[okey] {
			t.Fatalf("duplicate order key %d", okey)
		}
		seen[okey] = true
	}
}

func TestTPCCMix(t *testing.T) {
	w := NewTPCC(TPCCConfig{NewOrderPercent: 45, PaymentPercent: 45})
	g := w.NewGenerator(0, 11)
	counts := map[string]int{}
	for i := 0; i < 2000; i++ {
		counts[g.Next().Kind]++
	}
	if counts["neworder"] < 800 || counts["payment"] < 800 || counts["stocklevel"] < 100 {
		t.Fatalf("mix = %v", counts)
	}
}

func TestSmallBankShapes(t *testing.T) {
	w := NewSmallBank(SmallBankConfig{Customers: 1000})
	if len(w.LoadRows()) != 2000 {
		t.Fatal("wrong row count")
	}
	g := w.NewGenerator(0, 3)
	counts := map[string]int{}
	for i := 0; i < 2000; i++ {
		txn := g.Next()
		counts[txn.Kind]++
		switch txn.Kind {
		case "single-update":
			if len(txn.WriteSet) != 1 || !txn.Update {
				t.Fatalf("single-update shape: %+v", txn.WriteSet)
			}
		case "multi-update":
			if len(txn.WriteSet) != 2 || !txn.Update {
				t.Fatalf("multi-update shape: %+v", txn.WriteSet)
			}
			if txn.WriteSet[0] == txn.WriteSet[1] {
				t.Fatal("self transfer")
			}
		case "balance":
			if txn.Update || len(txn.WriteSet) != 0 {
				t.Fatal("balance not read-only")
			}
		}
	}
	if counts["single-update"] < 750 || counts["multi-update"] < 650 || counts["balance"] < 200 {
		t.Fatalf("mix: %v", counts)
	}
}

func TestSmallBankHotspot(t *testing.T) {
	w := NewSmallBank(SmallBankConfig{Customers: 10_000, Hotspot: 10})
	g := w.NewGenerator(0, 5).(*smallBankGen)
	hot := 0
	for i := 0; i < 1000; i++ {
		if g.customer() < 10 {
			hot++
		}
	}
	if hot < 800 {
		t.Fatalf("hotspot draws = %d/1000", hot)
	}
}

// fakeTx runs workload logic against an in-memory map for validation.
type fakeTx struct {
	data   map[storage.RowRef][]byte
	writes map[storage.RowRef][]byte
}

func newFakeTx(rows []systems.LoadRow) *fakeTx {
	t := &fakeTx{data: map[storage.RowRef][]byte{}, writes: map[storage.RowRef][]byte{}}
	for _, r := range rows {
		t.data[r.Ref] = r.Data
	}
	return t
}

func (t *fakeTx) Read(ref storage.RowRef) ([]byte, bool) {
	if w, ok := t.writes[ref]; ok {
		return w, true
	}
	d, ok := t.data[ref]
	return d, ok
}

func (t *fakeTx) Scan(table string, lo, hi uint64) []storage.KV {
	var out []storage.KV
	for ref, d := range t.data {
		if ref.Table == table && ref.Key >= lo && ref.Key < hi {
			out = append(out, storage.KV{Key: ref.Key, Value: d})
		}
	}
	return out
}

func (t *fakeTx) Write(ref storage.RowRef, data []byte) error {
	t.writes[ref] = data
	return nil
}

func TestTPCCTransactionsRunAgainstModel(t *testing.T) {
	w := NewTPCC(TPCCConfig{Warehouses: 2, Districts: 2, CustomersPerD: 10, Items: 100, InitialOrders: 5})
	rows := w.LoadRows()
	g := w.NewGenerator(0, 17)
	for i := 0; i < 200; i++ {
		txn := g.Next()
		tx := newFakeTx(rows)
		if err := txn.Run(tx); err != nil {
			t.Fatalf("txn %d (%s): %v", i, txn.Kind, err)
		}
		if txn.Update {
			// Every write must be inside the declared write set.
			declared := map[storage.RowRef]bool{}
			for _, ref := range txn.WriteSet {
				declared[ref] = true
			}
			for ref := range tx.writes {
				if !declared[ref] {
					t.Fatalf("txn %d (%s) wrote undeclared %v", i, txn.Kind, ref)
				}
			}
			if len(tx.writes) == 0 {
				t.Fatalf("txn %d (%s) declared updates but wrote nothing", i, txn.Kind)
			}
		}
	}
}

func TestYCSBAndSmallBankRunAgainstModel(t *testing.T) {
	for _, w := range []Workload{
		NewYCSB(YCSBConfig{Keys: 2000}),
		NewSmallBank(SmallBankConfig{Customers: 500}),
	} {
		rows := w.LoadRows()
		g := w.NewGenerator(1, 23)
		for i := 0; i < 200; i++ {
			txn := g.Next()
			tx := newFakeTx(rows)
			if err := txn.Run(tx); err != nil {
				t.Fatalf("%s txn %d (%s): %v", w.Name(), i, txn.Kind, err)
			}
		}
	}
}

func TestWorkloadNames(t *testing.T) {
	if NewYCSB(YCSBConfig{RMWPercent: 90}).Name() != "ycsb-90-10-uniform" {
		t.Error("ycsb name")
	}
	if NewYCSB(YCSBConfig{Zipfian: true}).Name() != "ycsb-50-50-zipfian" {
		t.Error("ycsb zipf name")
	}
	if NewTPCC(TPCCConfig{}).Name() != "tpcc-45-45-10" {
		t.Error("tpcc name")
	}
	if NewSmallBank(SmallBankConfig{}).Name() != "smallbank" {
		t.Error("smallbank name")
	}
}
