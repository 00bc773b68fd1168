package workload

import (
	"fmt"
	"sort"

	"oltpsim/internal/catalog"
	"oltpsim/internal/engine"
)

// TPCCConfig scales TPC-C. The spec's cardinalities per warehouse (100k
// items/stock, 10 districts, 3k customers and 3k seeded orders per district)
// are configurable so the same code serves unit tests and the paper-scale
// proxies; deviations from spec values are part of the proxy scaling (see
// harness.Scale).
type TPCCConfig struct {
	Warehouses           int
	Items                int // spec: 100,000
	CustomersPerDistrict int // spec: 3,000
	OrdersPerDistrict    int // spec: 3,000 seeded orders
}

// DistrictsPerWarehouse is fixed by the TPC-C specification.
const DistrictsPerWarehouse = 10

// TPC-C transaction mix percentages (the standard mix the paper uses; the
// two read-only types are OrderStatus and StockLevel).
const (
	MixNewOrder    = 45
	MixPayment     = 43
	MixOrderStatus = 4
	MixDelivery    = 4
	MixStockLevel  = 4
)

// Column indexes used by the transaction bodies.
const (
	wYTD = 2 // warehouse: w_id | w_tax, w_ytd

	dYTD    = 3 // district: d_w_id, d_id | d_tax, d_ytd, d_next_o_id
	dNextO  = 4
	cBal    = 3 // customer: c_w_id, c_d_id, c_id | c_balance, c_ytd_pay, c_pay_cnt, c_del_cnt, c_credit
	cYTD    = 4
	cPayCnt = 5
	cDelCnt = 6

	iPrice = 1 // item: i_id | i_price, i_im_id, i_data

	sQty = 2 // stock: s_w_id, s_i_id | s_quantity, s_ytd, s_order_cnt, s_remote_cnt
	sYTD = 3
	sCnt = 4

	oCID     = 3 // orders: o_w_id, o_d_id, o_id | o_c_id, o_carrier, o_ol_cnt, o_entry_d
	oCarrier = 4
	oOLCnt   = 5

	olItem   = 4 // orderline: ol_w, ol_d, ol_o, ol_number | ol_i_id, ol_qty, ol_amount, ol_delivery_d
	olQty    = 5
	olAmount = 6
	olDeliv  = 7

	clOID = 3 // clast: cl_w, cl_d, cl_c | cl_o_id
)

// TPCC is the TPC-C workload.
type TPCC struct {
	cfg TPCCConfig

	warehouse, district, customer, history *engine.Table
	item, stock, orders, neworder          *engine.Table
	orderline, clast                       *engine.Table

	histSeq []int64
	argBuf  []catalog.Value // backs Gen's argument slices (consumed per call)
}

// NewTPCC validates cfg and returns the workload.
func NewTPCC(cfg TPCCConfig) *TPCC {
	if cfg.Warehouses <= 0 {
		cfg.Warehouses = 1
	}
	if cfg.Items <= 0 {
		cfg.Items = 10_000
	}
	if cfg.CustomersPerDistrict <= 0 {
		cfg.CustomersPerDistrict = 300
	}
	if cfg.OrdersPerDistrict <= 0 {
		cfg.OrdersPerDistrict = 300
	}
	return &TPCC{cfg: cfg}
}

// Config returns the workload parameters.
func (w *TPCC) Config() TPCCConfig { return w.cfg }

// Name implements Workload.
func (w *TPCC) Name() string { return fmt.Sprintf("tpcc-%dw", w.cfg.Warehouses) }

// Setup implements Workload.
func (w *TPCC) Setup(e *engine.Engine) {
	longCol := func(n string) catalog.Column { return catalog.Column{Name: n, Type: catalog.TypeLong} }
	tbl := func(name string, keyCols int, cols ...string) *engine.Table {
		cc := make([]catalog.Column, len(cols))
		for i, c := range cols {
			cc[i] = longCol(c)
		}
		return e.CreateTable(catalog.NewSchema(name, cc...), cols[:keyCols]...)
	}
	// Ordered variant for the tables Delivery/OrderStatus/StockLevel scan;
	// hash-configured engines fall back to their B-tree here (the paper's
	// DBMS M runs TPC-C on its B-tree variant for this reason).
	otbl := func(name string, keyCols int, cols ...string) *engine.Table {
		cc := make([]catalog.Column, len(cols))
		for i, c := range cols {
			cc[i] = longCol(c)
		}
		return e.CreateOrderedTable(catalog.NewSchema(name, cc...), cols[:keyCols]...)
	}
	w.warehouse = tbl("warehouse", 1, "w_id", "w_tax", "w_ytd")
	w.district = tbl("district", 2, "d_w_id", "d_id", "d_tax", "d_ytd", "d_next_o_id")
	w.customer = tbl("customer", 3, "c_w_id", "c_d_id", "c_id",
		"c_balance", "c_ytd_payment", "c_payment_cnt", "c_delivery_cnt", "c_credit")
	w.history = tbl("history", 2, "h_w_id", "h_seq", "h_d_id", "h_c_id", "h_amount")
	w.item = tbl("item", 1, "i_id", "i_price", "i_im_id", "i_data").SetReplicated()
	w.stock = tbl("stock", 2, "s_w_id", "s_i_id", "s_quantity", "s_ytd", "s_order_cnt", "s_remote_cnt")
	w.orders = tbl("orders", 3, "o_w_id", "o_d_id", "o_id", "o_c_id", "o_carrier_id", "o_ol_cnt", "o_entry_d")
	w.neworder = otbl("new_order", 3, "no_w_id", "no_d_id", "no_o_id")
	w.orderline = otbl("order_line", 4, "ol_w_id", "ol_d_id", "ol_o_id", "ol_number",
		"ol_i_id", "ol_quantity", "ol_amount", "ol_delivery_d")
	// clast models the customer -> latest order lookup structure (the spec's
	// secondary index on ORDERS) as an explicit table.
	w.clast = tbl("clast", 3, "cl_w_id", "cl_d_id", "cl_c_id", "cl_o_id")
	w.histSeq = make([]int64, e.Partitions())

	e.Register("new_order", w.newOrder)
	e.Register("payment", w.payment)
	e.Register("order_status", w.orderStatus)
	e.Register("delivery", w.delivery)
	e.Register("stock_level", w.stockLevel)
}

func key2(a, b int64) []catalog.Value { return []catalog.Value{long(a), long(b)} }
func key3(a, b, c int64) []catalog.Value {
	return []catalog.Value{long(a), long(b), long(c)}
}
func key4(a, b, c, d int64) []catalog.Value {
	return []catalog.Value{long(a), long(b), long(c), long(d)}
}

// newOrder: args = w, d, c, olCnt, then olCnt x (itemID, qty).
func (w *TPCC) newOrder(tx *engine.Tx) error {
	wid, did, cid, olCnt := tx.ArgI(0), tx.ArgI(1), tx.ArgI(2), tx.ArgI(3)

	if _, err := tx.GetRow(w.warehouse, []catalog.Value{long(wid)}); err != nil {
		return err
	}
	drow, err := tx.GetRow(w.district, key2(wid, did))
	if err != nil {
		return err
	}
	oid := drow[dNextO].I
	if err := tx.UpdateAdd(w.district, key2(wid, did), dNextO, 1); err != nil {
		return err
	}
	if _, err := tx.GetRow(w.customer, key3(wid, did, cid)); err != nil {
		return err
	}
	if err := tx.Insert(w.orders, catalog.Row{
		long(wid), long(did), long(oid), long(cid), long(0), long(olCnt), long(0),
	}); err != nil {
		return err
	}
	if err := tx.Insert(w.neworder, catalog.Row{long(wid), long(did), long(oid)}); err != nil {
		return err
	}
	if err := tx.Update(w.clast, key3(wid, did, cid), clOID, long(oid)); err != nil {
		return err
	}
	for i := int64(0); i < olCnt; i++ {
		item := tx.ArgI(int(4 + 2*i))
		qty := tx.ArgI(int(4 + 2*i + 1))
		irow, err := tx.GetRow(w.item, []catalog.Value{long(item)})
		if err != nil {
			return err
		}
		if err := tx.Modify(w.stock, key2(wid, item), func(row catalog.Row) catalog.Row {
			q := row[sQty].I - qty
			if q < 10 {
				q += 91
			}
			row[sQty] = long(q)
			row[sYTD] = long(row[sYTD].I + qty)
			row[sCnt] = long(row[sCnt].I + 1)
			return row
		}); err != nil {
			return err
		}
		if err := tx.Insert(w.orderline, catalog.Row{
			long(wid), long(did), long(oid), long(i + 1),
			long(item), long(qty), long(irow[iPrice].I * qty), long(0),
		}); err != nil {
			return err
		}
	}
	return nil
}

// payment: args = w, d, c, amount, histSeq.
func (w *TPCC) payment(tx *engine.Tx) error {
	wid, did, cid, amt, seq := tx.ArgI(0), tx.ArgI(1), tx.ArgI(2), tx.ArgI(3), tx.ArgI(4)
	if err := tx.UpdateAdd(w.warehouse, []catalog.Value{long(wid)}, wYTD, amt); err != nil {
		return err
	}
	if err := tx.UpdateAdd(w.district, key2(wid, did), dYTD, amt); err != nil {
		return err
	}
	if err := tx.Modify(w.customer, key3(wid, did, cid), func(row catalog.Row) catalog.Row {
		row[cBal] = long(row[cBal].I - amt)
		row[cYTD] = long(row[cYTD].I + amt)
		row[cPayCnt] = long(row[cPayCnt].I + 1)
		return row
	}); err != nil {
		return err
	}
	return tx.Insert(w.history, catalog.Row{
		long(wid), long(seq), long(did), long(cid), long(amt),
	})
}

// orderStatus: args = w, d, c. Read-only.
func (w *TPCC) orderStatus(tx *engine.Tx) error {
	wid, did, cid := tx.ArgI(0), tx.ArgI(1), tx.ArgI(2)
	if _, err := tx.GetRow(w.customer, key3(wid, did, cid)); err != nil {
		return err
	}
	last, err := tx.Get(w.clast, key3(wid, did, cid), clOID)
	if err != nil {
		return err
	}
	if last.I == 0 {
		return nil // customer has never ordered
	}
	orow, err := tx.GetRow(w.orders, key3(wid, did, last.I))
	if err != nil {
		return err
	}
	return tx.Scan(w.orderline, key4(wid, did, last.I, 1), int(orow[oOLCnt].I),
		func(key []byte, row catalog.Row) bool {
			return row[2].I == last.I // stop past the order
		})
}

// delivery: args = w, carrier.
func (w *TPCC) delivery(tx *engine.Tx) error {
	wid, carrier := tx.ArgI(0), tx.ArgI(1)
	for did := int64(1); did <= DistrictsPerWarehouse; did++ {
		oid := int64(-1)
		if err := tx.Scan(w.neworder, key3(wid, did, 0), 1,
			func(key []byte, row catalog.Row) bool {
				if row[0].I == wid && row[1].I == did {
					oid = row[2].I
				}
				return false
			}); err != nil {
			return err
		}
		if oid < 0 {
			continue // no undelivered order in this district
		}
		if err := tx.Delete(w.neworder, key3(wid, did, oid)); err != nil {
			return err
		}
		orow, err := tx.GetRow(w.orders, key3(wid, did, oid))
		if err != nil {
			return err
		}
		cid, olCnt := orow[oCID].I, orow[oOLCnt].I
		if err := tx.Modify(w.orders, key3(wid, did, oid), func(row catalog.Row) catalog.Row {
			row[oCarrier] = long(carrier)
			return row
		}); err != nil {
			return err
		}
		var total int64
		var ols []int64
		if err := tx.Scan(w.orderline, key4(wid, did, oid, 1), int(olCnt),
			func(key []byte, row catalog.Row) bool {
				if row[2].I != oid {
					return false
				}
				total += row[olAmount].I
				ols = append(ols, row[3].I)
				return true
			}); err != nil {
			return err
		}
		for _, ol := range ols {
			if err := tx.Modify(w.orderline, key4(wid, did, oid, ol), func(row catalog.Row) catalog.Row {
				row[olDeliv] = long(1)
				return row
			}); err != nil {
				return err
			}
		}
		if err := tx.Modify(w.customer, key3(wid, did, cid), func(row catalog.Row) catalog.Row {
			row[cBal] = long(row[cBal].I + total)
			row[cDelCnt] = long(row[cDelCnt].I + 1)
			return row
		}); err != nil {
			return err
		}
	}
	return nil
}

// stockLevel: args = w, d, threshold. Read-only.
func (w *TPCC) stockLevel(tx *engine.Tx) error {
	wid, did, threshold := tx.ArgI(0), tx.ArgI(1), tx.ArgI(2)
	drow, err := tx.GetRow(w.district, key2(wid, did))
	if err != nil {
		return err
	}
	next := drow[dNextO].I
	lo := next - 20
	if lo < 1 {
		lo = 1
	}
	seen := make(map[int64]bool)
	if err := tx.Scan(w.orderline, key4(wid, did, lo, 1), 0,
		func(key []byte, row catalog.Row) bool {
			if row[1].I != did || row[2].I >= next {
				return false
			}
			seen[row[olItem].I] = true
			return true
		}); err != nil {
		return err
	}
	items := make([]int64, 0, len(seen))
	for it := range seen {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] }) // determinism
	low := 0
	for _, it := range items {
		v, err := tx.Get(w.stock, key2(wid, it), sQty)
		if err != nil {
			return err
		}
		if v.I < threshold {
			low++
		}
	}
	return nil
}

// Populate implements Workload.
func (w *TPCC) Populate(e *engine.Engine) {
	cfg := w.cfg
	for i := 1; i <= cfg.Items; i++ {
		w.item.Load(catalog.Row{long(int64(i)), long(int64(i%90 + 10)), long(int64(i % 1000)), long(0)})
	}
	for wid := int64(1); wid <= int64(cfg.Warehouses); wid++ {
		w.warehouse.Load(catalog.Row{long(wid), long(7), long(0)})
		for i := 1; i <= cfg.Items; i++ {
			w.stock.Load(catalog.Row{long(wid), long(int64(i)), long(50 + int64(i%50)), long(0), long(0), long(0)})
		}
		for did := int64(1); did <= DistrictsPerWarehouse; did++ {
			w.district.Load(catalog.Row{long(wid), long(did), long(9), long(0),
				long(int64(cfg.OrdersPerDistrict) + 1)})
			for c := int64(1); c <= int64(cfg.CustomersPerDistrict); c++ {
				w.customer.Load(catalog.Row{long(wid), long(did), long(c),
					long(-10), long(10), long(1), long(0), long(0)})
			}
			lastOrder := make(map[int64]int64)
			rng := NewRand(uint64(wid)<<16 ^ uint64(did))
			for o := int64(1); o <= int64(cfg.OrdersPerDistrict); o++ {
				cid := (o-1)%int64(cfg.CustomersPerDistrict) + 1
				olCnt := int64(rng.Range(5, 15))
				carrier := int64(rng.Range(1, 10))
				delivered := o <= int64(cfg.OrdersPerDistrict*7/10)
				if !delivered {
					carrier = 0
					w.neworder.Load(catalog.Row{long(wid), long(did), long(o)})
				}
				w.orders.Load(catalog.Row{long(wid), long(did), long(o),
					long(cid), long(carrier), long(olCnt), long(0)})
				for ol := int64(1); ol <= olCnt; ol++ {
					item := int64(rng.Intn(cfg.Items)) + 1
					qty := int64(rng.Range(1, 10))
					deliv := int64(0)
					if delivered {
						deliv = 1
					}
					w.orderline.Load(catalog.Row{long(wid), long(did), long(o), long(ol),
						long(item), long(qty), long(qty * 10), long(deliv)})
				}
				lastOrder[cid] = o
			}
			for c := int64(1); c <= int64(cfg.CustomersPerDistrict); c++ {
				w.clast.Load(catalog.Row{long(wid), long(did), long(c), long(lastOrder[c])})
			}
		}
	}
}

// Gen implements Workload: the standard mix, constrained to warehouses of
// the caller's partition. The warehouse count must divide evenly across
// partitions.
func (w *TPCC) Gen(r *Rand, part, parts int) Call {
	if parts > 1 && w.cfg.Warehouses%parts != 0 {
		panic("workload: TPC-C warehouse count must be a multiple of the partition count")
	}
	var wid int64
	if parts > 1 {
		// Partition routing hashes the warehouse ID modulo the partition
		// count, so pick a 1-based warehouse ID congruent to this partition.
		span := w.cfg.Warehouses / parts
		k := r.Intn(span)
		if part == 0 {
			wid = int64((k + 1) * parts)
		} else {
			wid = int64(k*parts + part)
		}
	} else {
		wid = int64(r.Intn(w.cfg.Warehouses)) + 1
	}
	did := int64(r.Range(1, DistrictsPerWarehouse))
	cid := int64(r.Range(1, w.cfg.CustomersPerDistrict))

	switch x := r.Intn(100); {
	case x < MixNewOrder:
		olCnt := int64(r.Range(5, 15))
		args := append(w.argBuf[:0], long(wid), long(did), long(cid), long(olCnt))
		for i := int64(0); i < olCnt; i++ {
			args = append(args, long(int64(r.Intn(w.cfg.Items))+1), long(int64(r.Range(1, 10))))
		}
		w.argBuf = args
		return Call{Proc: "new_order", Args: args}
	case x < MixNewOrder+MixPayment:
		for len(w.histSeq) <= part {
			w.histSeq = append(w.histSeq, 0)
		}
		w.histSeq[part]++
		args := append(w.argBuf[:0],
			long(wid), long(did), long(cid), long(int64(r.Range(1, 5000))), long(w.histSeq[part]))
		w.argBuf = args
		return Call{Proc: "payment", Args: args}
	case x < MixNewOrder+MixPayment+MixOrderStatus:
		args := append(w.argBuf[:0], long(wid), long(did), long(cid))
		w.argBuf = args
		return Call{Proc: "order_status", Args: args}
	case x < MixNewOrder+MixPayment+MixOrderStatus+MixDelivery:
		args := append(w.argBuf[:0], long(wid), long(int64(r.Range(1, 10))))
		w.argBuf = args
		return Call{Proc: "delivery", Args: args}
	default:
		args := append(w.argBuf[:0], long(wid), long(did), long(int64(r.Range(10, 20))))
		w.argBuf = args
		return Call{Proc: "stock_level", Args: args}
	}
}

// Tables exposes key TPC-C tables for tests and reports.
func (w *TPCC) Tables() map[string]*engine.Table {
	return map[string]*engine.Table{
		"warehouse": w.warehouse, "district": w.district, "customer": w.customer,
		"history": w.history, "item": w.item, "stock": w.stock,
		"orders": w.orders, "new_order": w.neworder, "order_line": w.orderline,
		"clast": w.clast,
	}
}
