// Package tpcc implements the TPC-C on-line transaction processing benchmark
// over the shared storage engine: the full nine-table schema and all five
// transaction profiles (NewOrder, Payment, OrderStatus, Delivery,
// StockLevel) with the standard mix. This is the high-contention macro-
// benchmark behind the paper's Table 2 row 3 (1 warehouse, ~3x over the best
// non-deterministic protocol).
//
// Deviations from the letter of the TPC-C specification follow the
// research-prototype conventions of the systems the paper compares against
// (DBx1000/ExpoDB lineage):
//
//   - No terminals or think times; transactions are generated back-to-back.
//   - Monetary amounts are fixed-point cents in uint64 fields; taxes and
//     discounts are basis points. Text fields are represented by
//     deterministic hashes, so final states are bit-comparable across
//     engines.
//   - The deterministic-planning contract (paper §2.3: full read/write set
//     known up front) is satisfied by generator shadow state: order ids,
//     order-line counts and item lists are assigned/tracked at generation
//     time, exactly as deterministic systems do in practice (Calvin's OLLP).
//   - A Delivery business transaction is emitted as one transaction per
//     district (rotating carrier/district counters) instead of one
//     ten-district mega-transaction.
//   - Delivered NEW-ORDER rows are marked rather than deleted (the fragment
//     model has no delete operation).
//   - Transactions only read orders created in earlier batches, so
//     concurrent execution within a batch never chases just-inserted rows.
//   - The read-only ITEM table is replicated per warehouse (identical rows
//     per item id, standard deterministic-store practice). NewOrder reads
//     each line's price from the supplying warehouse's replica, so a remote
//     order line is a genuine cross-partition — and, distributed, cross-node
//     — data dependency (price published at the supplier, consumed at the
//     home warehouse's order-line insert).
//
// Partitioning: every key encodes its warehouse as key % W, and the
// workload requires Partitions == Warehouses (partition-per-warehouse, the
// layout H-Store and the paper's evaluation assume).
package tpcc

import (
	"encoding/binary"
	"fmt"

	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/workload"
)

// Table ids.
const (
	TableWarehouse storage.TableID = 10 + iota
	TableDistrict
	TableCustomer
	TableHistory
	TableNewOrder
	TableOrders
	TableOrderLine
	TableItem
	TableStock
)

// Value sizes (bytes). Fields are uint64 little-endian at 8-byte offsets.
const (
	warehouseSize = 48
	districtSize  = 64
	customerSize  = 96
	historySize   = 32
	newOrderSize  = 16
	ordersSize    = 64
	orderLineSize = 64
	itemSize      = 32
	stockSize     = 64
)

// Field offsets.
const (
	// warehouse
	offWTax = 0
	offWYtd = 8
	// district
	offDTax      = 0
	offDYtd      = 8
	offDNextOID  = 16
	offDDelivOID = 24
	// customer
	offCBalance     = 0
	offCYtdPayment  = 8
	offCPaymentCnt  = 16
	offCDeliveryCnt = 24
	offCDiscount    = 32
	offCCredit      = 40
	offCDataHash    = 48
	// history
	offHAmount = 0
	offHWid    = 8
	offHDid    = 16
	offHCid    = 24
	// new-order
	offNoDelivered = 0
	// orders
	offOCid       = 0
	offOEntryD    = 8
	offOCarrierID = 16
	offOOlCnt     = 24
	// order-line
	offOlIid       = 0
	offOlSupplyW   = 8
	offOlQuantity  = 16
	offOlAmount    = 24
	offOlDeliveryD = 32
	// item
	offIPrice    = 0
	offIImID     = 8
	offIDataHash = 16
	// stock
	offSQuantity  = 0
	offSYtd       = 8
	offSOrderCnt  = 16
	offSRemoteCnt = 24
)

// Spec constants (scaled-down defaults are in Config).
const (
	districtsPerWarehouse = 10
	maxOrderLines         = 15
	minOrderLines         = 5
	// oidSpan bounds order ids per district in the key encoding.
	oidSpan = uint64(1) << 24
)

func u64(b []byte, off int) uint64       { return binary.LittleEndian.Uint64(b[off:]) }
func putU64(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }

// Config parameterizes the workload.
type Config struct {
	// Warehouses is the scale factor W. Partitions must equal Warehouses.
	Warehouses int
	// Partitions must match the store and equal Warehouses.
	Partitions int
	// Items is the item-catalog size (spec: 100000; default 10000, the
	// common research-prototype scale-down).
	Items int
	// CustomersPerDistrict (spec: 3000; default 3000, lower in tests).
	CustomersPerDistrict int
	// InitialOrdersPerDistrict (spec: 3000; default 100 to keep load times
	// reasonable — initial orders only seed Delivery/OrderStatus).
	InitialOrdersPerDistrict int
	// RemoteStockProb is the probability an order line's supplying
	// warehouse is remote (spec: 0.01). A remote line reads the supplier's
	// ITEM replica and updates its STOCK row, so on a cluster it carries a
	// cross-node data dependency. Set negative to disable remote lines
	// (zero selects the spec default).
	RemoteStockProb float64
	// RemotePaymentProb is the probability Payment pays a remote customer
	// (spec: 0.15). Set negative to disable.
	RemotePaymentProb float64
	// InvalidItemProb is the probability a NewOrder contains an invalid
	// item and aborts (spec: 0.01). Set negative to disable.
	InvalidItemProb float64
	// Seed makes the stream reproducible.
	Seed uint64
}

func (c *Config) normalize() error {
	if c.Warehouses <= 0 {
		c.Warehouses = 1
	}
	if c.Partitions == 0 {
		c.Partitions = c.Warehouses
	}
	if c.Partitions != c.Warehouses {
		return fmt.Errorf("tpcc: Partitions (%d) must equal Warehouses (%d): keys are warehouse-partitioned", c.Partitions, c.Warehouses)
	}
	if c.Items == 0 {
		c.Items = 10000
	}
	if c.CustomersPerDistrict == 0 {
		c.CustomersPerDistrict = 3000
	}
	if c.InitialOrdersPerDistrict == 0 {
		c.InitialOrdersPerDistrict = 100
	}
	if c.InitialOrdersPerDistrict > c.CustomersPerDistrict {
		c.InitialOrdersPerDistrict = c.CustomersPerDistrict
	}
	if c.RemoteStockProb == 0 {
		c.RemoteStockProb = 0.01
	}
	if c.RemotePaymentProb == 0 {
		c.RemotePaymentProb = 0.15
	}
	if c.InvalidItemProb == 0 {
		c.InvalidItemProb = 0.01
	}
	if uint64(c.InitialOrdersPerDistrict) >= oidSpan {
		return fmt.Errorf("tpcc: too many initial orders (%d) for the key encoding", c.InitialOrdersPerDistrict)
	}
	return nil
}

// --- key encodings ---------------------------------------------------------
//
// Every key is base*W + (w-1), so key % Partitions == w-1: all rows of a
// warehouse live in its partition.

func (g *Workload) keyWarehouse(w int) storage.Key {
	return storage.Key(uint64(w - 1))
}

func (g *Workload) keyDistrict(w, d int) storage.Key {
	return storage.Key(uint64(d-1)*uint64(g.cfg.Warehouses) + uint64(w-1))
}

func (g *Workload) keyCustomer(w, d, c int) storage.Key {
	base := uint64(d-1)*uint64(g.cfg.CustomersPerDistrict) + uint64(c-1)
	return storage.Key(base*uint64(g.cfg.Warehouses) + uint64(w-1))
}

func (g *Workload) keyItem(w, i int) storage.Key {
	return storage.Key(uint64(i-1)*uint64(g.cfg.Warehouses) + uint64(w-1))
}

func (g *Workload) keyStock(w, i int) storage.Key {
	return storage.Key(uint64(i-1)*uint64(g.cfg.Warehouses) + uint64(w-1))
}

func (g *Workload) keyOrder(w, d int, o uint64) storage.Key {
	base := uint64(d-1)*oidSpan + o
	return storage.Key(base*uint64(g.cfg.Warehouses) + uint64(w-1))
}

func (g *Workload) keyNewOrder(w, d int, o uint64) storage.Key {
	return g.keyOrder(w, d, o) // separate table, same encoding
}

func (g *Workload) keyOrderLine(w, d int, o uint64, ol int) storage.Key {
	base := (uint64(d-1)*oidSpan+o)*uint64(maxOrderLines+1) + uint64(ol)
	return storage.Key(base*uint64(g.cfg.Warehouses) + uint64(w-1))
}

func (g *Workload) keyHistory(w int, seq uint64) storage.Key {
	return storage.Key(seq*uint64(g.cfg.Warehouses) + uint64(w-1))
}

// ring is a growable circular buffer over a dense, monotonically advancing
// uint64 key range [base, base+n) — the flattened replacement for the
// generator's per-district oid-keyed shadow maps. put appends at the high
// end (zero-filling any skipped keys), get reads inside the window, and
// advanceTo drops entries below a key as the window moves on. Every
// operation is allocation-free except the amortized doubling grow, which is
// what takes the old per-order map inserts off the generation hot path.
type ring[T any] struct {
	buf  []T
	base uint64 // key of buf[head]
	head int    // index of base within buf
	n    int    // live entries: keys [base, base+n)
}

func (r *ring[T]) get(k uint64) (v T, ok bool) {
	if k < r.base || k-r.base >= uint64(r.n) {
		return v, false
	}
	return r.buf[(r.head+int(k-r.base))%len(r.buf)], true
}

// at returns a pointer to the entry for key k, which must be inside the
// window (compaction helper).
func (r *ring[T]) at(k uint64) *T {
	return &r.buf[(r.head+int(k-r.base))%len(r.buf)]
}

// put stores v under key k, which must be >= base; keys between the current
// high end and k are zero-filled (oids consumed by aborted NewOrders).
func (r *ring[T]) put(k uint64, v T) {
	if k < r.base {
		panic("tpcc: ring put below window base")
	}
	if d := k - r.base; d < uint64(r.n) {
		r.buf[(r.head+int(d))%len(r.buf)] = v
		return
	}
	need := int(k-r.base) + 1
	r.grow(need)
	var zero T
	for i := r.n; i < need-1; i++ {
		r.buf[(r.head+i)%len(r.buf)] = zero
	}
	r.buf[(r.head+need-1)%len(r.buf)] = v
	r.n = need
}

func (r *ring[T]) grow(need int) {
	if need <= len(r.buf) {
		return
	}
	nc := 2 * len(r.buf)
	if nc < need {
		nc = need
	}
	if nc < 64 {
		nc = 64
	}
	nb := make([]T, nc)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf, r.head = nb, 0
}

// advanceTo drops every entry with key < k (no-op when k <= base).
func (r *ring[T]) advanceTo(k uint64) {
	if k <= r.base {
		return
	}
	if d := k - r.base; d < uint64(r.n) {
		r.head = (r.head + int(d)) % len(r.buf)
		r.n -= int(d)
	} else {
		r.head, r.n = 0, 0
	}
	r.base = k
}

// ordInfo is one order's delivery bookkeeping. olCnt == 0 marks an oid that
// never materialized (its NewOrder carried an invalid item and aborted).
type ordInfo struct {
	olCnt uint8
	cust  uint32
}

// itemSpan locates one order's item list inside the district's flat itemBuf.
type itemSpan struct {
	off, n uint32
}

// districtShadow is the generator's deterministic mirror of per-district
// order bookkeeping (the planner-side knowledge deterministic databases
// require). The former oid-keyed maps (olCnt/itemsOf/custOf) are flattened
// into ring buffers over the dense oid space, and the per-customer
// lastOrderOf map into a plain slice, so steady-state generation allocates
// nothing here:
//
//   - ords covers [ords.base, nextOID) and advances with delivery — exactly
//     the undelivered backlog plus the gaps aborted NewOrders left.
//   - items covers [items.base, nextOID), trimmed each batch to the
//     stock-level window (the last 21 pre-batch orders); spans point into
//     itemBuf, the flat item-id storage compacted at the same boundary.
//   - lastOrder[c-1] packs customer c's most recent order as oid<<8|olCnt
//     (0 = none): order-status needs both and must not depend on ring
//     entries that delivery has already evicted.
type districtShadow struct {
	nextOID    uint64 // next order id to assign
	nextDeliv  uint64 // next order id to deliver
	batchStart uint64 // first oid of the current batch (delivery barrier)
	// materialized counts the orders that ever committed (non-aborted
	// NewOrders plus the initial load): ring entries are evicted as delivery
	// advances, so CheckConsistency needs this to pin the total ORDERS
	// cardinality against the store.
	materialized uint64
	ords         ring[ordInfo]
	items        ring[itemSpan]
	itemBuf      []int32
	lastOrder    []uint64
}

// trimItems advances the stock-level window to lo and compacts itemBuf so it
// holds only the surviving spans' items. Spans are laid out in ascending oid
// (= ascending offset) order, so the in-place copy moves every run left.
func (sh *districtShadow) trimItems(lo uint64) {
	sh.items.advanceTo(lo)
	w := uint32(0)
	for k := sh.items.base; k < sh.items.base+uint64(sh.items.n); k++ {
		sp := sh.items.at(k)
		copy(sh.itemBuf[w:], sh.itemBuf[sp.off:sp.off+sp.n])
		sp.off = w
		w += sp.n
	}
	sh.itemBuf = sh.itemBuf[:w]
}

// Workload implements workload.Generator for TPC-C.
type Workload struct {
	cfg     Config
	rng     *workload.RNG
	reg     txn.Registry
	nextID  uint64
	shadow  [][]*districtShadow // [w-1][d-1]
	histSeq []uint64            // per warehouse history key counter
	// delivery rotation
	delivW, delivD int
	arena          *txn.Arena // nil = heap allocation
	// newOrder / stockLevel scratch (per-txn, reused)
	lines     []orderLine
	seenItems []int
}

// SetArena makes subsequent NextBatch calls allocate transactions, fragments
// and argument slices from a (the caller owns its Reset cadence; see
// txn.Arena). Pass nil to return to heap allocation.
func (g *Workload) SetArena(a *txn.Arena) { g.arena = a }

var _ workload.Generator = (*Workload)(nil)

// New builds a TPC-C generator.
func New(cfg Config) (*Workload, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	g := &Workload{cfg: cfg, rng: workload.NewRNG(cfg.Seed)}
	g.reg = g.Registry()
	g.shadow = make([][]*districtShadow, cfg.Warehouses)
	g.histSeq = make([]uint64, cfg.Warehouses)
	for w := range g.shadow {
		g.shadow[w] = make([]*districtShadow, districtsPerWarehouse)
		for d := range g.shadow[w] {
			g.shadow[w][d] = &districtShadow{
				nextOID:    uint64(cfg.InitialOrdersPerDistrict) + 1,
				nextDeliv:  uint64(cfg.InitialOrdersPerDistrict)*7/10 + 1,
				batchStart: uint64(cfg.InitialOrdersPerDistrict) + 1,
				lastOrder:  make([]uint64, cfg.CustomersPerDistrict),
			}
		}
	}
	return g, nil
}

// MustNew is New but panics on config errors.
func MustNew(cfg Config) *Workload {
	g, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Name implements workload.Generator.
func (g *Workload) Name() string { return "tpcc" }

// Config returns the normalized configuration.
func (g *Workload) Config() Config { return g.cfg }

// StoreConfig implements workload.Generator.
func (g *Workload) StoreConfig(partitions int) storage.Config {
	return storage.Config{
		Partitions: partitions,
		Tables: []storage.TableSpec{
			{ID: TableWarehouse, Name: "warehouse", ValueSize: warehouseSize},
			{ID: TableDistrict, Name: "district", ValueSize: districtSize},
			{ID: TableCustomer, Name: "customer", ValueSize: customerSize},
			{ID: TableHistory, Name: "history", ValueSize: historySize},
			{ID: TableNewOrder, Name: "new_order", ValueSize: newOrderSize},
			{ID: TableOrders, Name: "orders", ValueSize: ordersSize},
			{ID: TableOrderLine, Name: "order_line", ValueSize: orderLineSize},
			{ID: TableItem, Name: "item", ValueSize: itemSize},
			{ID: TableStock, Name: "stock", ValueSize: stockSize},
		},
	}
}

// Load implements workload.Generator: populates the initial database per the
// spec's cardinalities (as scaled by Config), deterministically from Seed.
func (g *Workload) Load(s *storage.Store) error {
	cfg := g.cfg
	load := workload.NewRNG(cfg.Seed + 0x10ad)
	var buf [256]byte

	// Item catalog: drawn once per item id so every warehouse's ITEM replica
	// is bit-identical — a read of any replica (NewOrder reads the supplying
	// warehouse's) observes the same row, as a replicated table requires.
	type itemRow struct{ price, imID, dataHash uint64 }
	items := make([]itemRow, cfg.Items+1)
	for i := 1; i <= cfg.Items; i++ {
		items[i] = itemRow{
			price:    100 + load.Uint64()%9901, // 1.00..100.00
			imID:     1 + load.Uint64()%10000,
			dataHash: load.Uint64(),
		}
	}

	for w := 1; w <= cfg.Warehouses; w++ {
		// Warehouse: tax 0..20% in basis points.
		v := buf[:warehouseSize]
		clear(v)
		putU64(v, offWTax, load.Uint64()%2001)
		putU64(v, offWYtd, 30000000) // 300k.00 in cents
		if _, ok := s.Table(TableWarehouse).Insert(g.keyWarehouse(w), v); !ok {
			return fmt.Errorf("tpcc: duplicate warehouse %d", w)
		}

		// Item replica + per-warehouse stock.
		for i := 1; i <= cfg.Items; i++ {
			v = buf[:itemSize]
			clear(v)
			putU64(v, offIPrice, items[i].price)
			putU64(v, offIImID, items[i].imID)
			putU64(v, offIDataHash, items[i].dataHash)
			s.Table(TableItem).Insert(g.keyItem(w, i), v)

			v = buf[:stockSize]
			clear(v)
			putU64(v, offSQuantity, 10+load.Uint64()%91)
			s.Table(TableStock).Insert(g.keyStock(w, i), v)
		}

		for d := 1; d <= districtsPerWarehouse; d++ {
			sh := g.shadow[w-1][d-1]
			v = buf[:districtSize]
			clear(v)
			putU64(v, offDTax, load.Uint64()%2001)
			putU64(v, offDYtd, 3000000) // 30k.00
			putU64(v, offDNextOID, sh.nextOID)
			putU64(v, offDDelivOID, sh.nextDeliv)
			s.Table(TableDistrict).Insert(g.keyDistrict(w, d), v)

			for c := 1; c <= cfg.CustomersPerDistrict; c++ {
				v = buf[:customerSize]
				clear(v)
				putU64(v, offCBalance, cents(-10))
				putU64(v, offCYtdPayment, 1000)
				putU64(v, offCDiscount, load.Uint64()%5001) // 0..50% bp
				if load.Uint64()%10 == 0 {
					putU64(v, offCCredit, 1) // BC
				}
				putU64(v, offCDataHash, load.Uint64())
				s.Table(TableCustomer).Insert(g.keyCustomer(w, d, c), v)
			}

			// Initial orders: customer permutation over 1..InitialOrders.
			for o := uint64(1); o < sh.nextOID; o++ {
				cid := int(o)%cfg.CustomersPerDistrict + 1
				olCnt := minOrderLines + int(load.Uint64()%(maxOrderLines-minOrderLines+1))
				sh.ords.put(o, ordInfo{olCnt: uint8(olCnt), cust: uint32(cid)})
				sh.materialized++
				itemOff := uint32(len(sh.itemBuf))
				v = buf[:ordersSize]
				clear(v)
				putU64(v, offOCid, uint64(cid))
				putU64(v, offOEntryD, 0)
				delivered := o < sh.nextDeliv
				if delivered {
					putU64(v, offOCarrierID, 1+load.Uint64()%10)
				}
				putU64(v, offOOlCnt, uint64(olCnt))
				s.Table(TableOrders).Insert(g.keyOrder(w, d, o), v)

				v = buf[:newOrderSize]
				clear(v)
				if delivered {
					putU64(v, offNoDelivered, 1)
				}
				s.Table(TableNewOrder).Insert(g.keyNewOrder(w, d, o), v)

				for ol := 1; ol <= olCnt; ol++ {
					item := 1 + int(load.Uint64()%uint64(cfg.Items))
					sh.itemBuf = append(sh.itemBuf, int32(item))
					v = buf[:orderLineSize]
					clear(v)
					putU64(v, offOlIid, uint64(item))
					putU64(v, offOlSupplyW, uint64(w))
					putU64(v, offOlQuantity, 5)
					putU64(v, offOlAmount, load.Uint64()%999900)
					if delivered {
						putU64(v, offOlDeliveryD, 1)
					}
					s.Table(TableOrderLine).Insert(g.keyOrderLine(w, d, o, ol), v)
				}
				sh.items.put(o, itemSpan{off: itemOff, n: uint32(olCnt)})
				sh.lastOrder[cid-1] = o<<8 | uint64(olCnt)
			}
		}
	}
	return nil
}

// cents converts a signed dollar amount to the uint64 cents representation
// (two's complement for negatives, matching the arithmetic in fragments).
func cents(dollars int64) uint64 { return uint64(dollars * 100) }
