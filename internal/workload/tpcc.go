package workload

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"dynamast/internal/sitemgr"
	"dynamast/internal/storage"
	"dynamast/internal/systems"
)

// TPC-C table names.
const (
	TableWarehouse = "warehouse"
	TableDistrict  = "district"
	TableCustomer  = "customer"
	TableItem      = "item"
	TableStock     = "stock"
	TableOrder     = "order"
	TableOrderLine = "orderline"
	TableNewOrder  = "neworder"
	TableHistory   = "history"
)

// Key-encoding constants. Orders are keyed under their district with a
// bounded order-id space; order lines under their order.
const (
	maxOrders     = 1 << 22
	maxOrderLines = 16
	historyPerWh  = 1 << 32
	itemPartition = uint64(1) << 40 // partition-id space for the item table
	itemsPerIPart = 1000

	// Partition-group layout. A warehouse's rows split into sub-warehouse
	// partition groups — the warehouse row, one group per district
	// (district+customer+order+orderline+neworder+history), and a fixed
	// number of stock blocks — so DynaMast's co-access statistics can
	// anchor a warehouse's groups to one site while the balance feature
	// still resists collapsing whole warehouses together.
	whPartStride = 64
	stockBlocks  = 16
)

// TPCCConfig parameterizes the workload. The paper runs 10 warehouses and
// 100k items on 8 sites; defaults here are scaled to this reproduction.
type TPCCConfig struct {
	Warehouses    int // default 10
	Districts     int // per warehouse, default 10
	CustomersPerD int // default 100 (scaled from 3000)
	Items         int // default 2000 (scaled from 100k)
	InitialOrders int // per district, default 30

	// Mix percentages; the remainder after NewOrder+Payment is
	// Stock-Level. Paper default: 45/45/10.
	NewOrderPercent int
	PaymentPercent  int

	// CrossNewOrderPct is the share of New-Order transactions with at
	// least one remote supply warehouse (paper default 10; §VI-B3 sweeps
	// 0-33). CrossPaymentPct is the share of Payments updating a remote
	// warehouse and district (paper default 15).
	CrossNewOrderPct int
	CrossPaymentPct  int
}

func (c TPCCConfig) withDefaults() TPCCConfig {
	if c.Warehouses == 0 {
		c.Warehouses = 10
	}
	if c.Districts == 0 {
		c.Districts = 10
	}
	if c.CustomersPerD == 0 {
		c.CustomersPerD = 100
	}
	if c.Items == 0 {
		c.Items = 2000
	}
	if c.InitialOrders == 0 {
		c.InitialOrders = 30
	}
	if c.NewOrderPercent == 0 && c.PaymentPercent == 0 {
		c.NewOrderPercent, c.PaymentPercent = 45, 45
	}
	if c.CrossNewOrderPct == 0 {
		c.CrossNewOrderPct = 10
	}
	if c.CrossPaymentPct == 0 {
		c.CrossPaymentPct = 15
	}
	return c
}

// TPCC implements Workload with the three transaction types the paper
// evaluates: New-Order and Payment (update-intensive) and Stock-Level
// (read-only) — the bulk of the workload and of its distributed
// transactions.
type TPCC struct {
	cfg TPCCConfig
	// nextOID allocates order ids per district (reconnaissance stand-in:
	// write sets must be known at submission, so order ids are drawn
	// before the transaction starts).
	nextOID []atomic.Uint64
	histSeq atomic.Uint64
}

// NewTPCC builds the workload.
func NewTPCC(cfg TPCCConfig) *TPCC {
	cfg = cfg.withDefaults()
	w := &TPCC{cfg: cfg}
	w.nextOID = make([]atomic.Uint64, cfg.Warehouses*cfg.Districts)
	for d := range w.nextOID {
		w.nextOID[d].Store(uint64(cfg.InitialOrders))
	}
	return w
}

// Name implements Workload.
func (w *TPCC) Name() string {
	return fmt.Sprintf("tpcc-%d-%d-%d", w.cfg.NewOrderPercent, w.cfg.PaymentPercent,
		100-w.cfg.NewOrderPercent-w.cfg.PaymentPercent)
}

// Tables implements Workload.
func (w *TPCC) Tables() []string {
	return []string{TableWarehouse, TableDistrict, TableCustomer, TableItem,
		TableStock, TableOrder, TableOrderLine, TableNewOrder, TableHistory}
}

// Key encoders.

func (w *TPCC) dKey(wh, d int) uint64 { return uint64(wh*w.cfg.Districts + d) }
func (w *TPCC) cKey(wh, d, c int) uint64 {
	return w.dKey(wh, d)*uint64(w.cfg.CustomersPerD) + uint64(c)
}
func (w *TPCC) sKey(wh, i int) uint64 { return uint64(wh)*uint64(w.cfg.Items) + uint64(i) }
func (w *TPCC) oKey(wh, d int, o uint64) uint64 {
	return w.dKey(wh, d)*maxOrders + o
}
func (w *TPCC) olKey(okey uint64, line int) uint64 {
	return okey*maxOrderLines + uint64(line)
}
func (w *TPCC) hKey(wh, d int, seq uint64) uint64 {
	return w.dKey(wh, d)*historyPerWh + seq
}

// Partitioner implements Workload: rows map to sub-warehouse partition
// groups — warehouse wh's groups occupy ids [wh*whPartStride,
// (wh+1)*whPartStride): the warehouse row (sub 0), one group per district
// (sub 1+d, carrying that district's customers, orders, order lines,
// new-orders and history), and stockBlocks stock groups. Item rows map to
// their own static partition space.
func (w *TPCC) Partitioner() sitemgr.Partitioner {
	d := uint64(w.cfg.Districts)
	cust := uint64(w.cfg.CustomersPerD)
	items := uint64(w.cfg.Items)
	itemsPerBlock := (items + stockBlocks - 1) / stockBlocks
	group := func(wh, sub uint64) uint64 { return wh*whPartStride + sub }
	return func(ref storage.RowRef) uint64 {
		switch ref.Table {
		case TableWarehouse:
			return group(ref.Key, 0)
		case TableDistrict:
			return group(ref.Key/d, 1+ref.Key%d)
		case TableCustomer:
			dkey := ref.Key / cust
			return group(dkey/d, 1+dkey%d)
		case TableStock:
			return group(ref.Key/items, 1+d+(ref.Key%items)/itemsPerBlock)
		case TableOrder, TableNewOrder:
			dkey := ref.Key / maxOrders
			return group(dkey/d, 1+dkey%d)
		case TableOrderLine:
			dkey := ref.Key / maxOrderLines / maxOrders
			return group(dkey/d, 1+dkey%d)
		case TableHistory:
			// History rows are insert-only; group them with the paying
			// customer's district so a cross-warehouse Payment's write
			// set never spans two warehouse-row groups.
			dkey := ref.Key / historyPerWh
			return group(dkey/d, 1+dkey%d)
		case TableItem:
			return itemPartition + ref.Key/itemsPerIPart
		}
		return 0
	}
}

// Placement implements Workload: whole warehouses round-robin across sites
// (the "partition by warehouse" strategy Schism confirms minimizes
// distributed transactions); item partitions are replicated so their
// placement is immaterial.
func (w *TPCC) Placement(m int) func(part uint64) int {
	return func(part uint64) int {
		if part >= itemPartition {
			return 0
		}
		return int(part/whPartStride) % m
	}
}

// ReplicatedTables implements Workload: the item table is static and
// read-only, so partitioned systems replicate it (as the paper's
// partition-store does for static read-only tables).
func (w *TPCC) ReplicatedTables() map[string]bool {
	return map[string]bool{TableItem: true}
}

// Row builders. Rows carry the fields the three transactions touch, in
// fixed binary layouts.

func warehouseRow(ytd uint64) []byte {
	row := make([]byte, 32)
	putU64(row, 0, ytd)
	putU64(row, 8, 7) // tax (percent)
	return row
}

func districtRow(nextOID, ytd uint64) []byte {
	row := make([]byte, 32)
	putU64(row, 0, nextOID)
	putU64(row, 8, ytd)
	return row
}

func customerRow(balance, payments uint64) []byte {
	row := make([]byte, 64) // padded toward a realistic customer tuple
	putU64(row, 0, balance)
	putU64(row, 8, payments)
	return row
}

func itemRow(price uint64) []byte {
	row := make([]byte, 24)
	putU64(row, 0, price)
	return row
}

func stockRow(qty, ytd uint64) []byte {
	row := make([]byte, 32)
	putU64(row, 0, qty)
	putU64(row, 8, ytd)
	return row
}

func orderRow(cust uint64, olCnt int) []byte {
	row := make([]byte, 24)
	putU64(row, 0, cust)
	putU64(row, 8, uint64(olCnt))
	return row
}

func orderLineRow(item, supplyWh, qty uint64) []byte {
	row := make([]byte, 32)
	putU64(row, 0, item)
	putU64(row, 8, supplyWh)
	putU64(row, 16, qty)
	return row
}

// LoadRows implements Workload.
func (w *TPCC) LoadRows() []systems.LoadRow {
	cfg := w.cfg
	var rows []systems.LoadRow
	add := func(table string, key uint64, data []byte) {
		rows = append(rows, systems.LoadRow{Ref: storage.RowRef{Table: table, Key: key}, Data: data})
	}
	for i := 0; i < cfg.Items; i++ {
		add(TableItem, uint64(i), itemRow(uint64(100+i%900)))
	}
	r := rand.New(rand.NewSource(7))
	for wh := 0; wh < cfg.Warehouses; wh++ {
		add(TableWarehouse, uint64(wh), warehouseRow(0))
		for i := 0; i < cfg.Items; i++ {
			add(TableStock, w.sKey(wh, i), stockRow(uint64(10+r.Intn(91)), 0))
		}
		for d := 0; d < cfg.Districts; d++ {
			add(TableDistrict, w.dKey(wh, d), districtRow(uint64(cfg.InitialOrders), 0))
			for c := 0; c < cfg.CustomersPerD; c++ {
				add(TableCustomer, w.cKey(wh, d, c), customerRow(1000, 0))
			}
			for o := uint64(0); o < uint64(cfg.InitialOrders); o++ {
				okey := w.oKey(wh, d, o)
				olCnt := 5 + r.Intn(11)
				cust := w.cKey(wh, d, r.Intn(cfg.CustomersPerD))
				add(TableOrder, okey, orderRow(cust, olCnt))
				for line := 0; line < olCnt; line++ {
					item := uint64(r.Intn(cfg.Items))
					add(TableOrderLine, w.olKey(okey, line),
						orderLineRow(item, uint64(wh), uint64(1+r.Intn(10))))
				}
			}
		}
	}
	return rows
}

// tpccGen is one client's transaction stream. TPC-C clients are bound to a
// home warehouse and district.
type tpccGen struct {
	w    *TPCC
	r    *rand.Rand
	home int // warehouse
}

// NewGenerator implements Workload.
func (w *TPCC) NewGenerator(client int, seed int64) Generator {
	r := rand.New(rand.NewSource(seed ^ int64(client)*0x5851F42D4C957F2D))
	return &tpccGen{w: w, r: r, home: client % w.cfg.Warehouses}
}

// Next implements Generator.
func (g *tpccGen) Next() Txn {
	p := g.r.Intn(100)
	switch {
	case p < g.w.cfg.NewOrderPercent:
		return g.newOrder()
	case p < g.w.cfg.NewOrderPercent+g.w.cfg.PaymentPercent:
		return g.payment()
	default:
		return g.stockLevel()
	}
}

// otherWarehouse picks a warehouse different from wh.
func (g *tpccGen) otherWarehouse(wh int) int {
	if g.w.cfg.Warehouses == 1 {
		return wh
	}
	o := g.r.Intn(g.w.cfg.Warehouses - 1)
	if o >= wh {
		o++
	}
	return o
}

// newOrder builds a New-Order transaction: 5-15 order lines, each item's
// stock read and updated; the district's next-order-id advanced; order,
// order-line and new-order rows inserted. CrossNewOrderPct of transactions
// source at least one line from a remote warehouse.
func (g *tpccGen) newOrder() Txn {
	w, cfg, r := g.w, g.w.cfg, g.r
	wh := g.home
	d := r.Intn(cfg.Districts)
	cust := w.cKey(wh, d, r.Intn(cfg.CustomersPerD))
	olCnt := 5 + r.Intn(11)
	cross := r.Intn(100) < cfg.CrossNewOrderPct

	type line struct {
		item     int
		supplyWh int
		qty      uint64
	}
	lines := make([]line, olCnt)
	seen := map[int]bool{}
	for i := range lines {
		it := r.Intn(cfg.Items)
		for seen[it] {
			it = r.Intn(cfg.Items)
		}
		seen[it] = true
		supply := wh
		// The first line of a cross-warehouse New-Order is remote.
		if cross && i == 0 {
			supply = g.otherWarehouse(wh)
		}
		lines[i] = line{item: it, supplyWh: supply, qty: uint64(1 + r.Intn(10))}
	}

	oid := w.nextOID[w.dKey(wh, d)].Add(1) - 1
	okey := w.oKey(wh, d, oid)

	ws := make([]storage.RowRef, 0, 3+2*olCnt)
	ws = append(ws,
		storage.RowRef{Table: TableDistrict, Key: w.dKey(wh, d)},
		storage.RowRef{Table: TableOrder, Key: okey},
		storage.RowRef{Table: TableNewOrder, Key: okey},
	)
	for i, ln := range lines {
		ws = append(ws,
			storage.RowRef{Table: TableStock, Key: w.sKey(ln.supplyWh, ln.item)},
			storage.RowRef{Table: TableOrderLine, Key: w.olKey(okey, i)},
		)
	}

	return Txn{
		Kind:     "neworder",
		Update:   true,
		WriteSet: ws,
		Run: func(tx systems.Tx) error {
			// Read warehouse tax and district state.
			if _, ok := tx.Read(storage.RowRef{Table: TableWarehouse, Key: uint64(wh)}); !ok {
				return fmt.Errorf("tpcc: warehouse %d missing", wh)
			}
			dref := storage.RowRef{Table: TableDistrict, Key: w.dKey(wh, d)}
			drow, ok := tx.Read(dref)
			if !ok {
				return fmt.Errorf("tpcc: district missing")
			}
			next := getU64(drow, 0)
			if next < oid+1 {
				next = oid + 1
			}
			if err := tx.Write(dref, districtRow(next, getU64(drow, 8))); err != nil {
				return err
			}
			if _, ok := tx.Read(storage.RowRef{Table: TableCustomer, Key: cust}); !ok {
				return fmt.Errorf("tpcc: customer missing")
			}
			var total uint64
			for i, ln := range lines {
				irow, ok := tx.Read(storage.RowRef{Table: TableItem, Key: uint64(ln.item)})
				if !ok {
					return fmt.Errorf("tpcc: item %d missing", ln.item)
				}
				price := getU64(irow, 0)
				sref := storage.RowRef{Table: TableStock, Key: w.sKey(ln.supplyWh, ln.item)}
				srow, ok := tx.Read(sref)
				if !ok {
					return fmt.Errorf("tpcc: stock w%d i%d missing", ln.supplyWh, ln.item)
				}
				qty := getU64(srow, 0)
				if qty >= ln.qty+10 {
					qty -= ln.qty
				} else {
					qty = qty + 91 - ln.qty
				}
				if err := tx.Write(sref, stockRow(qty, getU64(srow, 8)+ln.qty)); err != nil {
					return err
				}
				if err := tx.Write(storage.RowRef{Table: TableOrderLine, Key: w.olKey(okey, i)},
					orderLineRow(uint64(ln.item), uint64(ln.supplyWh), ln.qty)); err != nil {
					return err
				}
				total += price * ln.qty
			}
			if err := tx.Write(storage.RowRef{Table: TableOrder, Key: okey}, orderRow(cust, olCnt)); err != nil {
				return err
			}
			no := make([]byte, 16)
			putU64(no, 0, total)
			return tx.Write(storage.RowRef{Table: TableNewOrder, Key: okey}, no)
		},
	}
}

// payment builds a Payment transaction: increment warehouse and district
// payment totals, update the customer's balance, insert a history row.
// CrossPaymentPct of Payments update a remote warehouse and district.
func (g *tpccGen) payment() Txn {
	w, cfg, r := g.w, g.w.cfg, g.r
	wh := g.home
	payWh := wh
	if r.Intn(100) < cfg.CrossPaymentPct {
		payWh = g.otherWarehouse(wh)
	}
	d := r.Intn(cfg.Districts)
	cust := w.cKey(wh, d, r.Intn(cfg.CustomersPerD))
	amount := uint64(1 + r.Intn(5000))
	hkey := w.hKey(wh, d, w.histSeq.Add(1))

	wref := storage.RowRef{Table: TableWarehouse, Key: uint64(payWh)}
	dref := storage.RowRef{Table: TableDistrict, Key: w.dKey(payWh, d)}
	cref := storage.RowRef{Table: TableCustomer, Key: cust}
	href := storage.RowRef{Table: TableHistory, Key: hkey}
	ws := []storage.RowRef{wref, dref, cref, href}

	return Txn{
		Kind:     "payment",
		Update:   true,
		WriteSet: ws,
		Run: func(tx systems.Tx) error {
			wrow, ok := tx.Read(wref)
			if !ok {
				return fmt.Errorf("tpcc: warehouse %d missing", payWh)
			}
			if err := tx.Write(wref, warehouseRow(getU64(wrow, 0)+amount)); err != nil {
				return err
			}
			drow, ok := tx.Read(dref)
			if !ok {
				return fmt.Errorf("tpcc: district missing")
			}
			if err := tx.Write(dref, districtRow(getU64(drow, 0), getU64(drow, 8)+amount)); err != nil {
				return err
			}
			crow, ok := tx.Read(cref)
			if !ok {
				return fmt.Errorf("tpcc: customer missing")
			}
			bal := getU64(crow, 0)
			if bal >= amount {
				bal -= amount
			}
			if err := tx.Write(cref, customerRow(bal, getU64(crow, 8)+1)); err != nil {
				return err
			}
			h := make([]byte, 24)
			putU64(h, 0, amount)
			return tx.Write(href, h)
		},
	}
}

// stockLevel builds the read-only Stock-Level transaction: examine the
// district's most recent 20 orders' lines and count stock below a
// threshold. Lines sourced from remote warehouses make the read set span
// sites in partitioned systems.
func (g *tpccGen) stockLevel() Txn {
	w, cfg, r := g.w, g.w.cfg, g.r
	wh := g.home
	d := r.Intn(cfg.Districts)
	threshold := uint64(10 + r.Intn(11))
	dkey := w.dKey(wh, d)

	return Txn{
		Kind:     "stocklevel",
		ReadHint: []storage.RowRef{{Table: TableDistrict, Key: dkey}},
		Run: func(tx systems.Tx) error {
			drow, ok := tx.Read(storage.RowRef{Table: TableDistrict, Key: dkey})
			if !ok {
				return fmt.Errorf("tpcc: district missing")
			}
			next := getU64(drow, 0)
			lo := uint64(0)
			if next > 20 {
				lo = next - 20
			}
			// Scan the last orders' lines, then probe stock for each
			// distinct item.
			loKey := w.olKey(w.oKey(wh, d, lo), 0)
			hiKey := w.olKey(w.oKey(wh, d, next), 0)
			items := make(map[uint64]uint64) // item -> supply warehouse
			for _, kv := range tx.Scan(TableOrderLine, loKey, hiKey) {
				items[getU64(kv.Value, 0)] = getU64(kv.Value, 8)
			}
			low := 0
			for item, supply := range items {
				srow, ok := tx.Read(storage.RowRef{Table: TableStock, Key: w.sKey(int(supply), int(item))})
				if !ok {
					continue
				}
				if getU64(srow, 0) < threshold {
					low++
				}
			}
			_ = low
			return nil
		},
	}
}
