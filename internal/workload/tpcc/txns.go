package tpcc

import (
	"slices"

	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/workload"
)

// Transaction profile tags (Txn.Profile), for per-type stats.
const (
	ProfileNewOrder uint8 = iota + 1
	ProfilePayment
	ProfileOrderStatus
	ProfileDelivery
	ProfileStockLevel
)

// Opcodes. Argument layouts are documented per opcode.
const (
	// OpItemRead reads an item; Args: [invalidFlag, priceVarSlot].
	// Aborts when invalidFlag != 0 (the spec's 1% unused item id).
	// Publishes i_price to priceVarSlot.
	OpItemRead = workload.OpBaseTPCC + iota
	// OpWarehouseTax publishes w_tax to var 0.
	OpWarehouseTax
	// OpDistrictNewOrder increments d_next_o_id and publishes d_tax to var 1.
	OpDistrictNewOrder
	// OpCustomerDiscount publishes c_discount to var 2.
	OpCustomerDiscount
	// OpStockUpdate applies the NewOrder stock update; Args: [qty, remoteFlag].
	OpStockUpdate
	// OpOrderInsert fills an ORDERS row; Args: [c_id, entry_d, ol_cnt].
	OpOrderInsert
	// OpNewOrderInsert fills a NEW-ORDER row.
	OpNewOrderInsert
	// OpOrderLineInsert fills an ORDER-LINE row; Args: [i_id, supply_w, qty,
	// priceVarSlot]. Amount = qty*price*(1+w_tax+d_tax)*(1-c_discount),
	// consuming vars 0,1,2 and priceVarSlot.
	OpOrderLineInsert
	// OpWarehousePay adds Arg(0) to w_ytd.
	OpWarehousePay
	// OpDistrictPay adds Arg(0) to d_ytd.
	OpDistrictPay
	// OpCustomerPay applies a payment of Arg(0); Arg(1) is a data hash mixed
	// into c_data for bad-credit customers.
	OpCustomerPay
	// OpHistoryInsert fills a HISTORY row; Args: [amount, w, d, c].
	OpHistoryInsert
	// OpCustomerRead reads customer balance fields (OrderStatus).
	OpCustomerRead
	// OpOrderRead reads an ORDERS row (OrderStatus).
	OpOrderRead
	// OpOrderLineRead reads an ORDER-LINE row (OrderStatus / StockLevel).
	OpOrderLineRead
	// OpNewOrderDeliver marks a NEW-ORDER row delivered.
	OpNewOrderDeliver
	// OpOrderDeliver sets o_carrier_id = Arg(0) (Delivery).
	OpOrderDeliver
	// OpOrderLineDeliver sets ol_delivery_d = Arg(0) and publishes
	// ol_amount to var slot Arg(1) (Delivery).
	OpOrderLineDeliver
	// OpCustomerDeliver adds the published order-line amounts to c_balance
	// and increments c_delivery_cnt; Args: [numAmountSlots].
	OpCustomerDeliver
	// OpDistrictDeliver advances d_deliv_o_id (Delivery bookkeeping).
	OpDistrictDeliver
	// OpDistrictRead reads d_next_o_id (StockLevel).
	OpDistrictRead
	// OpStockCheck reads s_quantity and compares with threshold Arg(0)
	// (StockLevel).
	OpStockCheck
)

// Registry implements workload.Generator.
func (g *Workload) Registry() txn.Registry {
	return txn.Registry{
		OpItemRead: func(c *txn.FragCtx) error {
			if c.Arg(0) != 0 {
				return txn.ErrAbort
			}
			c.T.Publish(uint8(c.Arg(1)), u64(c.Val, offIPrice))
			return nil
		},
		OpWarehouseTax: func(c *txn.FragCtx) error {
			c.T.Publish(0, u64(c.Val, offWTax))
			return nil
		},
		OpDistrictNewOrder: func(c *txn.FragCtx) error {
			putU64(c.Val, offDNextOID, u64(c.Val, offDNextOID)+1)
			c.T.Publish(1, u64(c.Val, offDTax))
			return nil
		},
		OpCustomerDiscount: func(c *txn.FragCtx) error {
			c.T.Publish(2, u64(c.Val, offCDiscount))
			return nil
		},
		OpStockUpdate: func(c *txn.FragCtx) error {
			qty := c.Arg(0)
			q := u64(c.Val, offSQuantity)
			if q >= qty+10 {
				q -= qty
			} else {
				q = q - qty + 91
			}
			putU64(c.Val, offSQuantity, q)
			putU64(c.Val, offSYtd, u64(c.Val, offSYtd)+qty)
			putU64(c.Val, offSOrderCnt, u64(c.Val, offSOrderCnt)+1)
			if c.Arg(1) != 0 {
				putU64(c.Val, offSRemoteCnt, u64(c.Val, offSRemoteCnt)+1)
			}
			return nil
		},
		OpOrderInsert: func(c *txn.FragCtx) error {
			putU64(c.Val, offOCid, c.Arg(0))
			putU64(c.Val, offOEntryD, c.Arg(1))
			putU64(c.Val, offOOlCnt, c.Arg(2))
			return nil
		},
		OpNewOrderInsert: func(c *txn.FragCtx) error {
			putU64(c.Val, offNoDelivered, 0)
			return nil
		},
		OpOrderLineInsert: func(c *txn.FragCtx) error {
			iID, supplyW, qty := c.Arg(0), c.Arg(1), c.Arg(2)
			price := c.T.Var(uint8(c.Arg(3)))
			wTax := c.T.Var(0)
			dTax := c.T.Var(1)
			disc := c.T.Var(2)
			// amount = qty*price cents, taxed then discounted (basis points).
			amount := qty * price
			amount = amount * (10000 + wTax + dTax) / 10000
			amount = amount * (10000 - disc) / 10000
			putU64(c.Val, offOlIid, iID)
			putU64(c.Val, offOlSupplyW, supplyW)
			putU64(c.Val, offOlQuantity, qty)
			putU64(c.Val, offOlAmount, amount)
			putU64(c.Val, offOlDeliveryD, 0)
			return nil
		},
		OpWarehousePay: func(c *txn.FragCtx) error {
			putU64(c.Val, offWYtd, u64(c.Val, offWYtd)+c.Arg(0))
			return nil
		},
		OpDistrictPay: func(c *txn.FragCtx) error {
			putU64(c.Val, offDYtd, u64(c.Val, offDYtd)+c.Arg(0))
			return nil
		},
		OpCustomerPay: func(c *txn.FragCtx) error {
			amt := c.Arg(0)
			putU64(c.Val, offCBalance, u64(c.Val, offCBalance)-amt)
			putU64(c.Val, offCYtdPayment, u64(c.Val, offCYtdPayment)+amt)
			putU64(c.Val, offCPaymentCnt, u64(c.Val, offCPaymentCnt)+1)
			if u64(c.Val, offCCredit) == 1 {
				// Bad credit: fold payment details into the data hash, a
				// deterministic stand-in for the spec's c_data string edit.
				h := u64(c.Val, offCDataHash)
				putU64(c.Val, offCDataHash, h*1099511628211+amt+c.Arg(1))
			}
			return nil
		},
		OpHistoryInsert: func(c *txn.FragCtx) error {
			putU64(c.Val, offHAmount, c.Arg(0))
			putU64(c.Val, offHWid, c.Arg(1))
			putU64(c.Val, offHDid, c.Arg(2))
			putU64(c.Val, offHCid, c.Arg(3))
			return nil
		},
		OpCustomerRead: func(c *txn.FragCtx) error {
			_ = u64(c.Val, offCBalance)
			return nil
		},
		OpOrderRead: func(c *txn.FragCtx) error {
			_ = u64(c.Val, offOCarrierID)
			return nil
		},
		OpOrderLineRead: func(c *txn.FragCtx) error {
			_ = u64(c.Val, offOlAmount)
			return nil
		},
		OpNewOrderDeliver: func(c *txn.FragCtx) error {
			putU64(c.Val, offNoDelivered, 1)
			return nil
		},
		OpOrderDeliver: func(c *txn.FragCtx) error {
			putU64(c.Val, offOCarrierID, c.Arg(0))
			return nil
		},
		OpOrderLineDeliver: func(c *txn.FragCtx) error {
			putU64(c.Val, offOlDeliveryD, c.Arg(0))
			c.T.Publish(uint8(c.Arg(1)), u64(c.Val, offOlAmount))
			return nil
		},
		OpCustomerDeliver: func(c *txn.FragCtx) error {
			n := int(c.Arg(0))
			var sum uint64
			for i := 0; i < n; i++ {
				sum += c.T.Var(uint8(3 + i))
			}
			putU64(c.Val, offCBalance, u64(c.Val, offCBalance)+sum)
			putU64(c.Val, offCDeliveryCnt, u64(c.Val, offCDeliveryCnt)+1)
			return nil
		},
		OpDistrictDeliver: func(c *txn.FragCtx) error {
			putU64(c.Val, offDDelivOID, c.Arg(0))
			return nil
		},
		OpDistrictRead: func(c *txn.FragCtx) error {
			_ = u64(c.Val, offDNextOID)
			return nil
		},
		OpStockCheck: func(c *txn.FragCtx) error {
			_ = u64(c.Val, offSQuantity) < c.Arg(0)
			return nil
		},
	}
}

// NextBatch implements workload.Generator: standard mix (45% NewOrder, 43%
// Payment, 4% each OrderStatus/Delivery/StockLevel). Batch boundaries also
// advance the delivery barrier: transactions in batch b only read orders
// created in batches < b.
func (g *Workload) NextBatch(n int) []*txn.Txn {
	for w := range g.shadow {
		for d := range g.shadow[w] {
			sh := g.shadow[w][d]
			sh.batchStart = sh.nextOID
			// Trim the stock-level item window to the last 21 pre-batch
			// orders and compact the flat item storage behind it.
			lo := uint64(1)
			if sh.batchStart > 21 {
				lo = sh.batchStart - 21
			}
			sh.trimItems(lo)
		}
	}
	out := make([]*txn.Txn, 0, n)
	for i := 0; i < n; i++ {
		roll := g.rng.Intn(100)
		var t *txn.Txn
		switch {
		case roll < 45:
			t = g.newOrder()
		case roll < 88:
			t = g.payment()
		case roll < 92:
			t = g.orderStatus()
		case roll < 96:
			t = g.delivery()
		default:
			t = g.stockLevel()
		}
		out = append(out, t)
	}
	return out
}

// orderLine is the per-line scratch of a NewOrder under construction.
type orderLine struct {
	item    int
	supplyW int
	qty     uint64
	invalid bool
}

func (g *Workload) finish(t *txn.Txn, profile uint8) *txn.Txn {
	t.ID = g.nextID
	g.nextID++
	t.Profile = profile
	t.Finish()
	if err := g.reg.Resolve(t); err != nil {
		panic(err) // all opcodes registered above; unreachable
	}
	return t
}

// randWarehouse picks a home warehouse uniformly.
func (g *Workload) randWarehouse() int { return 1 + g.rng.Intn(g.cfg.Warehouses) }

// newOrder builds a NewOrder transaction (TPC-C §2.4).
func (g *Workload) newOrder() *txn.Txn {
	cfg := &g.cfg
	w := g.randWarehouse()
	d := 1 + g.rng.Intn(districtsPerWarehouse)
	c := int(g.rng.NURand(1023, 1, int64(cfg.CustomersPerDistrict)))
	sh := g.shadow[w-1][d-1]
	oid := sh.nextOID
	sh.nextOID++

	olCnt := minOrderLines + g.rng.Intn(maxOrderLines-minOrderLines+1)
	invalid := g.rng.Float64() < cfg.InvalidItemProb

	g.lines = g.lines[:0]
	g.seenItems = g.seenItems[:0]
	for i := 0; i < olCnt; i++ {
		item := int(g.rng.NURand(8191, 1, int64(cfg.Items)))
		for slices.Contains(g.seenItems, item) {
			item = 1 + g.rng.Intn(cfg.Items)
		}
		g.seenItems = append(g.seenItems, item)
		supplyW := w
		if cfg.Warehouses > 1 && g.rng.Float64() < cfg.RemoteStockProb {
			supplyW = 1 + g.rng.Intn(cfg.Warehouses)
			for supplyW == w {
				supplyW = 1 + g.rng.Intn(cfg.Warehouses)
			}
		}
		g.lines = append(g.lines, orderLine{item: item, supplyW: supplyW, qty: 1 + uint64(g.rng.Intn(10))})
	}
	lines := g.lines
	if invalid {
		lines[olCnt-1].invalid = true
	}

	t := g.arena.NewTxn()
	frags := g.arena.FragBuf(3 + 3*olCnt + 3)
	// Abortable item reads first (conservative-execution ordering rule).
	// Each line reads its *supplying* warehouse's ITEM replica (replicas are
	// identical, so the price is the same either way): a remote order line
	// therefore publishes its price from the supplier's partition — on a
	// cluster, from the supplier's node — which is exactly the cross-node
	// data dependency the distributed engines' MsgVars round forwards.
	for i, ln := range lines {
		slot := uint64(3 + i)
		inv := uint64(0)
		if ln.invalid {
			inv = 1
		}
		frags = append(frags, txn.Fragment{
			Table: TableItem, Key: g.keyItem(ln.supplyW, ln.item), Access: txn.Read,
			Abortable: true, Op: OpItemRead, Args: g.arena.Args(inv, slot),
			PubVars: g.arena.Slots(uint8(slot)),
		})
	}
	frags = append(frags,
		txn.Fragment{Table: TableWarehouse, Key: g.keyWarehouse(w), Access: txn.Read, Op: OpWarehouseTax, PubVars: g.arena.Slots(0)},
		txn.Fragment{Table: TableCustomer, Key: g.keyCustomer(w, d, c), Access: txn.Read, Op: OpCustomerDiscount, PubVars: g.arena.Slots(2)},
		txn.Fragment{Table: TableDistrict, Key: g.keyDistrict(w, d), Access: txn.ReadModifyWrite, Op: OpDistrictNewOrder, PubVars: g.arena.Slots(1)},
	)
	for _, ln := range lines {
		remote := uint64(0)
		if ln.supplyW != w {
			remote = 1
		}
		frags = append(frags, txn.Fragment{
			Table: TableStock, Key: g.keyStock(ln.supplyW, ln.item),
			Access: txn.ReadModifyWrite, Op: OpStockUpdate, Args: g.arena.Args(ln.qty, remote),
		})
	}
	entryD := g.nextID // deterministic virtual timestamp
	frags = append(frags,
		txn.Fragment{Table: TableOrders, Key: g.keyOrder(w, d, oid), Access: txn.Insert,
			Op: OpOrderInsert, Args: g.arena.Args(uint64(c), entryD, uint64(olCnt))},
		txn.Fragment{Table: TableNewOrder, Key: g.keyNewOrder(w, d, oid), Access: txn.Insert,
			Op: OpNewOrderInsert},
	)
	for i, ln := range lines {
		slot := uint64(3 + i)
		frags = append(frags, txn.Fragment{
			Table: TableOrderLine, Key: g.keyOrderLine(w, d, oid, i+1), Access: txn.Insert,
			Op: OpOrderLineInsert, Args: g.arena.Args(uint64(ln.item), uint64(ln.supplyW), ln.qty, slot),
			NeedVars: g.arena.Slots(0, 1, 2, uint8(slot)),
		})
	}
	t.Frags = frags

	// Shadow bookkeeping. An invalid-item NewOrder aborts deterministically,
	// so the order never materializes: its ring entries stay zero (olCnt 0 =
	// never materialized) but the oid stays consumed — ids may have gaps,
	// exactly like aborted sequences in production systems.
	if !invalid {
		off := uint32(len(sh.itemBuf))
		for _, ln := range lines {
			sh.itemBuf = append(sh.itemBuf, int32(ln.item))
		}
		sh.ords.put(oid, ordInfo{olCnt: uint8(olCnt), cust: uint32(c)})
		sh.items.put(oid, itemSpan{off: off, n: uint32(olCnt)})
		sh.lastOrder[c-1] = oid<<8 | uint64(olCnt)
		sh.materialized++
	} else {
		sh.ords.put(oid, ordInfo{})
		sh.items.put(oid, itemSpan{})
	}
	return g.finish(t, ProfileNewOrder)
}

// payment builds a Payment transaction (TPC-C §2.5).
func (g *Workload) payment() *txn.Txn {
	cfg := &g.cfg
	w := g.randWarehouse()
	d := 1 + g.rng.Intn(districtsPerWarehouse)
	cw, cd := w, d
	if cfg.Warehouses > 1 && g.rng.Float64() < cfg.RemotePaymentProb {
		cw = 1 + g.rng.Intn(cfg.Warehouses)
		for cw == w {
			cw = 1 + g.rng.Intn(cfg.Warehouses)
		}
		cd = 1 + g.rng.Intn(districtsPerWarehouse)
	}
	c := int(g.rng.NURand(1023, 1, int64(cfg.CustomersPerDistrict)))
	amt := uint64(100 + g.rng.Intn(500000-100+1)) // 1.00 .. 5000.00
	hseq := g.histSeq[w-1]
	g.histSeq[w-1]++

	t := g.arena.NewTxn()
	frags := g.arena.FragBuf(4)
	t.Frags = append(frags,
		txn.Fragment{Table: TableWarehouse, Key: g.keyWarehouse(w), Access: txn.ReadModifyWrite,
			Op: OpWarehousePay, Args: g.arena.Args(amt)},
		txn.Fragment{Table: TableDistrict, Key: g.keyDistrict(w, d), Access: txn.ReadModifyWrite,
			Op: OpDistrictPay, Args: g.arena.Args(amt)},
		txn.Fragment{Table: TableCustomer, Key: g.keyCustomer(cw, cd, c), Access: txn.ReadModifyWrite,
			Op: OpCustomerPay, Args: g.arena.Args(amt, g.nextID)},
		txn.Fragment{Table: TableHistory, Key: g.keyHistory(w, hseq), Access: txn.Insert,
			Op: OpHistoryInsert, Args: g.arena.Args(amt, uint64(w), uint64(d), uint64(c))},
	)
	return g.finish(t, ProfilePayment)
}

// orderStatus builds an OrderStatus transaction (TPC-C §2.6): customer
// balance plus the lines of the customer's most recent earlier-batch order.
func (g *Workload) orderStatus() *txn.Txn {
	cfg := &g.cfg
	w := g.randWarehouse()
	d := 1 + g.rng.Intn(districtsPerWarehouse)
	c := int(g.rng.NURand(1023, 1, int64(cfg.CustomersPerDistrict)))
	sh := g.shadow[w-1][d-1]

	t := g.arena.NewTxn()
	capHint := 1
	// The packed lastOrder entry carries oid and ol_cnt together, so
	// order-status never needs ring entries delivery may have evicted.
	packed := sh.lastOrder[c-1]
	oid, olCnt := packed>>8, int(packed&0xff)
	haveOrder := packed != 0 && oid < sh.batchStart
	if haveOrder {
		capHint += 1 + olCnt
	}
	frags := g.arena.FragBuf(capHint)
	frags = append(frags, txn.Fragment{
		Table: TableCustomer, Key: g.keyCustomer(w, d, c), Access: txn.Read, Op: OpCustomerRead,
	})
	if haveOrder {
		frags = append(frags, txn.Fragment{
			Table: TableOrders, Key: g.keyOrder(w, d, oid), Access: txn.Read, Op: OpOrderRead,
		})
		for ol := 1; ol <= olCnt; ol++ {
			frags = append(frags, txn.Fragment{
				Table: TableOrderLine, Key: g.keyOrderLine(w, d, oid, ol), Access: txn.Read, Op: OpOrderLineRead,
			})
		}
	}
	t.Frags = frags
	return g.finish(t, ProfileOrderStatus)
}

// delivery builds a Delivery transaction for one district (rotating over
// warehouses and districts), delivering the oldest undelivered earlier-batch
// order if any; otherwise it degenerates to a district read (the spec's
// "skipped delivery" result).
func (g *Workload) delivery() *txn.Txn {
	g.delivD++
	if g.delivD > districtsPerWarehouse {
		g.delivD = 1
		g.delivW++
	}
	if g.delivW >= g.cfg.Warehouses {
		g.delivW = 0
	}
	w := g.delivW + 1
	d := g.delivD
	sh := g.shadow[w-1][d-1]
	carrier := uint64(1 + g.rng.Intn(10))
	now := g.nextID + 1 // dates are 1-based: 0 means undelivered

	t := g.arena.NewTxn()
	districtReadOnly := func() *txn.Txn {
		frags := g.arena.FragBuf(1)
		t.Frags = append(frags, txn.Fragment{
			Table: TableDistrict, Key: g.keyDistrict(w, d), Access: txn.Read, Op: OpDistrictRead,
		})
		return g.finish(t, ProfileDelivery)
	}
	if sh.nextDeliv >= sh.batchStart || sh.nextDeliv >= sh.nextOID {
		// Nothing deliverable: bookkeeping read only.
		return districtReadOnly()
	}
	oid := sh.nextDeliv
	// Skip order ids that never materialized (aborted NewOrders): their ring
	// entries are zero.
	var info ordInfo
	for oid < sh.batchStart {
		if info, _ = sh.ords.get(oid); info.olCnt > 0 {
			break
		}
		oid++
	}
	if oid >= sh.batchStart {
		sh.nextDeliv = oid
		sh.ords.advanceTo(oid)
		return districtReadOnly()
	}
	olCnt := int(info.olCnt)
	// The delivered order's customer comes from the ring (deterministic
	// planning needs it at plan time, exactly as the old custOf map did).
	cid := g.customerOfOrder(w, d, oid)
	sh.nextDeliv = oid + 1
	sh.ords.advanceTo(sh.nextDeliv)

	frags := g.arena.FragBuf(4 + olCnt)
	frags = append(frags,
		txn.Fragment{Table: TableNewOrder, Key: g.keyNewOrder(w, d, oid), Access: txn.ReadModifyWrite,
			Op: OpNewOrderDeliver},
		txn.Fragment{Table: TableOrders, Key: g.keyOrder(w, d, oid), Access: txn.ReadModifyWrite,
			Op: OpOrderDeliver, Args: g.arena.Args(carrier)},
	)
	for ol := 1; ol <= olCnt; ol++ {
		slot := uint64(3 + ol - 1)
		frags = append(frags, txn.Fragment{
			Table: TableOrderLine, Key: g.keyOrderLine(w, d, oid, ol), Access: txn.ReadModifyWrite,
			Op: OpOrderLineDeliver, Args: g.arena.Args(now, slot), PubVars: g.arena.Slots(uint8(slot)),
		})
	}
	needs := g.arena.SlotBuf(olCnt)
	for i := range needs {
		needs[i] = uint8(3 + i)
	}
	frags = append(frags,
		txn.Fragment{Table: TableCustomer, Key: g.keyCustomer(w, d, cid), Access: txn.ReadModifyWrite,
			Op: OpCustomerDeliver, Args: g.arena.Args(uint64(olCnt)), NeedVars: needs},
		txn.Fragment{Table: TableDistrict, Key: g.keyDistrict(w, d), Access: txn.ReadModifyWrite,
			Op: OpDistrictDeliver, Args: g.arena.Args(oid + 1)},
	)
	t.Frags = frags
	return g.finish(t, ProfileDelivery)
}

// customerOfOrder resolves an order's customer for delivery planning.
func (g *Workload) customerOfOrder(w, d int, oid uint64) int {
	sh := g.shadow[w-1][d-1]
	if info, ok := sh.ords.get(oid); ok && info.cust != 0 {
		return int(info.cust)
	}
	// Initial orders used the deterministic permutation oid -> customer.
	return int(oid)%g.cfg.CustomersPerDistrict + 1
}

// stockLevel builds a StockLevel transaction (TPC-C §2.8): examine the
// distinct items of the last up-to-20 earlier-batch orders and count those
// with stock below a threshold.
func (g *Workload) stockLevel() *txn.Txn {
	w := g.randWarehouse()
	d := 1 + g.rng.Intn(districtsPerWarehouse)
	threshold := uint64(10 + g.rng.Intn(11))
	sh := g.shadow[w-1][d-1]

	t := g.arena.NewTxn()
	lo := uint64(1)
	if sh.batchStart > 21 {
		lo = sh.batchStart - 21
	}
	// First pass: collect the distinct items (scratch slice, no per-txn map)
	// so the fragment buffer can be sized exactly. The item window ring is
	// trimmed to exactly this oid range at every batch boundary.
	g.seenItems = g.seenItems[:0]
	for oid := lo; oid < sh.batchStart; oid++ {
		sp, ok := sh.items.get(oid)
		if !ok {
			continue
		}
		for _, it := range sh.itemBuf[sp.off : sp.off+sp.n] {
			if item := int(it); !slices.Contains(g.seenItems, item) {
				g.seenItems = append(g.seenItems, item)
			}
		}
	}
	frags := g.arena.FragBuf(1 + len(g.seenItems))
	frags = append(frags, txn.Fragment{
		Table: TableDistrict, Key: g.keyDistrict(w, d), Access: txn.Read, Op: OpDistrictRead,
	})
	for _, item := range g.seenItems {
		frags = append(frags, txn.Fragment{
			Table: TableStock, Key: g.keyStock(w, item), Access: txn.Read,
			Op: OpStockCheck, Args: g.arena.Args(threshold),
		})
	}
	t.Frags = frags
	return g.finish(t, ProfileStockLevel)
}
