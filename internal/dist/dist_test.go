package dist

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/exploratory-systems/qotp/internal/cluster"
	"github.com/exploratory-systems/qotp/internal/core"
	"github.com/exploratory-systems/qotp/internal/engine"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/workload"
	"github.com/exploratory-systems/qotp/internal/workload/bank"
	"github.com/exploratory-systems/qotp/internal/workload/tpcc"
	"github.com/exploratory-systems/qotp/internal/workload/ycsb"
)

const testParts = 8

// distEngine is the common surface of the three distributed engines.
type distEngine interface {
	engine.Engine
	Stores() []*storage.Store
}

type distFactory struct {
	name  string
	build func(tr cluster.Transport, gen workload.Generator, workers int) (distEngine, error)
}

func distFactories() []distFactory {
	return []distFactory{
		{"quecc-d", func(tr cluster.Transport, gen workload.Generator, workers int) (distEngine, error) {
			return NewQueCCD(tr, gen, testParts, workers)
		}},
		{"calvin-d", func(tr cluster.Transport, gen workload.Generator, workers int) (distEngine, error) {
			return NewCalvinD(tr, gen, testParts, workers, ArgAbortEval)
		}},
		{"hstore-d", func(tr cluster.Transport, gen workload.Generator, workers int) (distEngine, error) {
			return NewHStoreD(tr, gen, testParts, workers)
		}},
	}
}

// serialReference runs the batch stream through the single-node serial core
// engine and returns the reference state hash and table order.
func serialReference(t *testing.T, mkGen func() workload.Generator, nBatches, batchSize int) (uint64, []storage.TableID) {
	t.Helper()
	gen := mkGen()
	store := storage.MustOpen(gen.StoreConfig(testParts))
	if err := gen.Load(store); err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(store, core.Config{Planners: 1, Executors: 1})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < nBatches; b++ {
		if err := eng.ExecBatch(gen.NextBatch(batchSize)); err != nil {
			t.Fatalf("serial batch %d: %v", b, err)
		}
	}
	var tables []storage.TableID
	for _, ts := range mkGen().StoreConfig(testParts).Tables {
		tables = append(tables, ts.ID)
	}
	return store.StateHash(), tables
}

// TestClusterMatchesSerial: every distributed engine, on 2–4 nodes, must
// reproduce the serial single-node state hash for YCSB (multi-partition,
// with logic aborts), bank (cross-partition transfers with
// insufficient-balance aborts — the distributed abort-repair path), and
// TPC-C (the paper's flagship workload: remote NewOrder lines carry
// cross-node data dependencies through the MsgVars forwarding round, and
// invalid items abort publishers whose tombstones must feed the taint path).
func TestClusterMatchesSerial(t *testing.T) {
	const nBatches, batchSize = 3, 150
	workloads := map[string]func() workload.Generator{
		"ycsb": func() workload.Generator {
			return ycsb.MustNew(ycsb.Config{
				Records: 1024, OpsPerTxn: 6, ReadRatio: 0.3, RMWRatio: 0.4,
				Theta: 0.8, MultiPartitionRatio: 0.5, MultiPartitionCount: 3,
				AbortRatio: 0.05, Partitions: testParts, Seed: 61,
			})
		},
		"bank": func() workload.Generator {
			return bank.MustNew(bank.Config{
				Accounts: 96, InitialBalance: 150, MaxTransfer: 120,
				Partitions: testParts, Seed: 17,
			})
		},
		"tpcc": func() workload.Generator {
			return tpcc.MustNew(tpcc.Config{
				Warehouses: testParts, Partitions: testParts,
				Items: 100, CustomersPerDistrict: 20, InitialOrdersPerDistrict: 10,
				RemoteStockProb: 0.4, InvalidItemProb: 0.05, Seed: 23,
			})
		},
	}
	for wname, mk := range workloads {
		want, tables := serialReference(t, mk, nBatches, batchSize)
		for _, f := range distFactories() {
			for _, nodes := range []int{2, 3, 4} {
				t.Run(fmt.Sprintf("%s/%s/n%d", wname, f.name, nodes), func(t *testing.T) {
					tr := cluster.NewChanTransport(nodes, 0)
					defer tr.Close()
					gen := mk()
					eng, err := f.build(tr, gen, 2)
					if err != nil {
						t.Fatal(err)
					}
					defer eng.Close()
					for b := 0; b < nBatches; b++ {
						if err := eng.ExecBatch(gen.NextBatch(batchSize)); err != nil {
							t.Fatalf("batch %d: %v", b, err)
						}
					}
					if got := ClusterStateHash(eng.Stores(), tables); got != want {
						t.Errorf("cluster state %x != serial reference %x", got, want)
					}
					snap := eng.Stats().Snap(1)
					if snap.Committed+snap.UserAborts != uint64(nBatches*batchSize) {
						t.Errorf("committed(%d)+aborts(%d) != %d", snap.Committed, snap.UserAborts, nBatches*batchSize)
					}
					if snap.Retries != 0 {
						t.Errorf("deterministic distributed engine reported %d CC retries", snap.Retries)
					}
					if (wname == "bank" || wname == "tpcc") && snap.UserAborts == 0 {
						t.Errorf("expected logic aborts in the %s workload", wname)
					}
				})
			}
		}
	}
}

// TestBankInvariantsDistributed: conservation and non-negative balances
// across nodes — the distributed abort repair must never half-apply a
// transfer whose debit and credit live on different nodes.
func TestBankInvariantsDistributed(t *testing.T) {
	const nodes, nBatches, batchSize = 3, 4, 200
	const accounts, initial = 60, 120
	for _, f := range distFactories() {
		t.Run(f.name, func(t *testing.T) {
			tr := cluster.NewChanTransport(nodes, 0)
			defer tr.Close()
			gen := bank.MustNew(bank.Config{
				Accounts: accounts, InitialBalance: initial, MaxTransfer: 100,
				Partitions: testParts, Seed: 99,
			})
			eng, err := f.build(tr, gen, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			for b := 0; b < nBatches; b++ {
				if err := eng.ExecBatch(gen.NextBatch(batchSize)); err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
			}
			var total uint64
			minv := int64(1<<63 - 1)
			stores := eng.Stores()
			for part := 0; part < testParts; part++ {
				owner := cluster.PartitionOwner(part, nodes)
				stores[owner].Table(bank.TableID).ForEachInPartition(part, func(_ storage.Key, r *storage.Record) {
					v := int64(readU64(r.Val))
					total += uint64(v)
					if v < minv {
						minv = v
					}
				})
			}
			if total != accounts*initial {
				t.Errorf("total balance %d, want %d", total, accounts*initial)
			}
			if minv < 0 {
				t.Errorf("negative balance %d", minv)
			}
		})
	}
}

func readU64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// runCountingMessages executes nBatches of batchSize on a fresh engine and
// returns the transport message count consumed by those batches.
func runCountingMessages(t *testing.T, f distFactory, mk func() workload.Generator, nodes, nBatches, batchSize int) uint64 {
	t.Helper()
	tr := cluster.NewChanTransport(nodes, 0)
	defer tr.Close()
	gen := mk()
	eng, err := f.build(tr, gen, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pre := tr.Messages()
	for b := 0; b < nBatches; b++ {
		if err := eng.ExecBatch(gen.NextBatch(batchSize)); err != nil {
			t.Fatal(err)
		}
	}
	return tr.Messages() - pre
}

// TestMessageRounds makes the paper's §2.2 claim executable: the
// deterministic batch-shipping engines pay a message cost per batch that is
// independent of the batch size, while H-Store-D's 2PC cost grows with the
// transaction count (and with the multi-partition fraction).
func TestMessageRounds(t *testing.T) {
	const nodes, nBatches = 4, 3
	mkYCSB := func(mp float64) func() workload.Generator {
		return func() workload.Generator {
			return ycsb.MustNew(ycsb.Config{
				Records: 4096, OpsPerTxn: 6, ReadRatio: 0.5, RMWRatio: 0.25,
				MultiPartitionRatio: mp, MultiPartitionCount: 2,
				Partitions: testParts, Seed: 7,
			})
		}
	}

	// Batch-amortized engines: same message count at 10x the batch size.
	for _, f := range distFactories()[:2] {
		small := runCountingMessages(t, f, mkYCSB(0.3), nodes, nBatches, 100)
		large := runCountingMessages(t, f, mkYCSB(0.3), nodes, nBatches, 1000)
		if small != large {
			t.Errorf("%s: message rounds depend on batch size: %d msgs at batch=100, %d at batch=1000", f.name, small, large)
		}
		// Exactly four exchanges (queues/batch out, done back, commit out,
		// ack back) per abort-free batch.
		if want := uint64(nBatches * 4 * (nodes - 1)); small != want {
			t.Errorf("%s: %d msgs for %d abort-free batches, want %d", f.name, small, nBatches, want)
		}
	}

	// H-Store-D: per-transaction messages, growing with batch size...
	hf := distFactories()[2]
	small := runCountingMessages(t, hf, mkYCSB(0.2), nodes, nBatches, 100)
	large := runCountingMessages(t, hf, mkYCSB(0.2), nodes, nBatches, 1000)
	if large < 5*small {
		t.Errorf("hstore-d: expected ~10x messages at 10x batch size, got %d -> %d", small, large)
	}
	// ...and with the multi-partition fraction (2PC rounds per MP txn).
	sp := runCountingMessages(t, hf, mkYCSB(0.0), nodes, nBatches, 500)
	mp := runCountingMessages(t, hf, mkYCSB(0.8), nodes, nBatches, 500)
	if mp <= sp {
		t.Errorf("hstore-d: multi-partition txns did not raise message cost (%d -> %d)", sp, mp)
	}
}

// TestShapeErrors covers constructor validation.
func TestShapeErrors(t *testing.T) {
	tr := cluster.NewChanTransport(4, 0)
	defer tr.Close()
	gen := ycsb.MustNew(ycsb.Config{Records: 64, OpsPerTxn: 2, Partitions: 2, Seed: 1})
	if _, err := NewQueCCD(tr, gen, 2, 1); err == nil {
		t.Error("expected error: fewer partitions than nodes")
	}
}

// mkDistTPCC builds the TPC-C generator the forwarding tests share:
// partition-per-warehouse over testParts warehouses, with the remote-line and
// invalid-item probabilities under test control (negative disables).
func mkDistTPCC(remote, invalid float64, seed uint64) func() workload.Generator {
	return func() workload.Generator {
		return tpcc.MustNew(tpcc.Config{
			Warehouses: testParts, Partitions: testParts,
			Items: 200, CustomersPerDistrict: 30, InitialOrdersPerDistrict: 10,
			RemoteStockProb: remote, RemotePaymentProb: -1,
			InvalidItemProb: invalid, Seed: seed,
		})
	}
}

// TestTPCCForwardingMessageRounds: distributed TPC-C with cross-node
// NewOrder lines pays exactly one forwarding exchange on top of the four
// batch-level exchanges — at most one MsgVars per (publisher, consumer) node
// pair per round — and the total stays independent of the batch size. This is
// the paper's batch-constant claim extended to data-dependent workloads.
func TestTPCCForwardingMessageRounds(t *testing.T) {
	const nodes, nBatches = 4, 3
	for _, f := range distFactories()[:2] {
		t.Run(f.name, func(t *testing.T) {
			// Abort-free so no taint rounds: per batch, 4 protocol exchanges
			// plus the vars round. 50% remote lines saturate every node pair.
			small := runCountingMessages(t, f, mkDistTPCC(0.5, -1, 77), nodes, nBatches, 150)
			large := runCountingMessages(t, f, mkDistTPCC(0.5, -1, 77), nodes, nBatches, 1500)
			if small != large {
				t.Errorf("message rounds depend on batch size: %d msgs at batch=150, %d at batch=1500", small, large)
			}
			base := uint64(nBatches * 4 * (nodes - 1))
			vars := small - base
			if vars == 0 {
				t.Fatal("expected a MsgVars forwarding round for remote order lines")
			}
			if want := uint64(nBatches * nodes * (nodes - 1)); vars > want {
				t.Errorf("%d vars messages for %d batches exceed one per node pair per round (max %d)", vars, nBatches, want)
			}
		})
	}
}

// TestSameNodeDepsEmitNoVars: with every order line home-supplied, publisher
// and consumer always share a node, so no MsgVars may be emitted — the batch
// cost stays at exactly the four protocol exchanges.
func TestSameNodeDepsEmitNoVars(t *testing.T) {
	const nodes, nBatches = 4, 3
	for _, f := range distFactories()[:2] {
		t.Run(f.name, func(t *testing.T) {
			got := runCountingMessages(t, f, mkDistTPCC(-1, -1, 31), nodes, nBatches, 200)
			if want := uint64(nBatches * 4 * (nodes - 1)); got != want {
				t.Errorf("node-local data dependencies emitted extra messages: got %d, want %d (no MsgVars)", got, want)
			}
		})
	}
}

// TestSkippedRemotePublisherTaints: when a remote publisher aborts (invalid
// item), its consumers receive a tombstone instead of a value and the abort
// resolves through the ordinary taint rounds — the cluster must neither
// deadlock nor diverge from the serial reference.
func TestSkippedRemotePublisherTaints(t *testing.T) {
	const nBatches, batchSize = 2, 120
	mk := mkDistTPCC(0.6, 0.3, 5)
	want, tables := serialReference(t, mk, nBatches, batchSize)
	for _, f := range distFactories() {
		t.Run(f.name, func(t *testing.T) {
			tr := cluster.NewChanTransport(3, 0)
			defer tr.Close()
			gen := mk()
			eng, err := f.build(tr, gen, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			for b := 0; b < nBatches; b++ {
				if err := eng.ExecBatch(gen.NextBatch(batchSize)); err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
			}
			if got := ClusterStateHash(eng.Stores(), tables); got != want {
				t.Errorf("cluster state %x != serial reference %x", got, want)
			}
			if eng.Stats().Snap(1).UserAborts == 0 {
				t.Error("expected invalid-item aborts")
			}
		})
	}
}

// badPosTransport appends an out-of-range batch position to the first message
// of one type it carries, as a malformed or hostile peer would.
type badPosTransport struct {
	cluster.Transport
	typ  cluster.MsgType
	done atomic.Bool
}

func (b *badPosTransport) Send(m cluster.Msg) error {
	if m.Type == b.typ && b.done.CompareAndSwap(false, true) {
		m.Vals = append(append([]uint64(nil), m.Vals...), 1<<40)
	}
	return b.Transport.Send(m)
}

// TestOutOfRangeVerdictPositions: a verdict position read off the wire that
// lies outside the batch — in a completion report, a repair-round report or
// the leader's taint set — must fail ExecBatch with an error, never index out
// of range and crash the process.
func TestOutOfRangeVerdictPositions(t *testing.T) {
	mk := func() workload.Generator {
		return ycsb.MustNew(ycsb.Config{
			Records: 1024, OpsPerTxn: 6, ReadRatio: 0.3, RMWRatio: 0.4,
			Theta: 0.8, MultiPartitionRatio: 0.5, MultiPartitionCount: 3,
			AbortRatio: 0.05, Partitions: testParts, Seed: 61,
		})
	}
	for name, typ := range map[string]cluster.MsgType{
		"batch-done":   cluster.MsgBatchDone,
		"taint-report": cluster.MsgTaintReport,
		"taint-set":    cluster.MsgTaintSet,
	} {
		t.Run(name, func(t *testing.T) {
			inner := cluster.NewChanTransport(2, 0)
			defer inner.Close()
			tr := &badPosTransport{Transport: inner, typ: typ}
			gen := mk()
			eng, err := NewQueCCD(tr, gen, testParts, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			for b := 0; b < 3 && err == nil; b++ {
				err = eng.ExecBatch(gen.NextBatch(150))
			}
			if !tr.done.Load() {
				t.Fatal("no message of the corrupted type was sent: the batches had no repair round")
			}
			if err == nil || !strings.Contains(err.Error(), "unknown batch position") {
				t.Fatalf("ExecBatch = %v, want an unknown-batch-position error", err)
			}
			if err := eng.ExecBatch(gen.NextBatch(150)); err == nil {
				t.Fatal("engine accepted a batch after a protocol failure")
			}
		})
	}
}

// testDepGen is a minimal generator for forwarding-validation tests: its
// batch is fixed by the test.
type testDepGen struct {
	batch []*txn.Txn
}

const testDepTable storage.TableID = 1

func (g *testDepGen) Name() string { return "testdep" }
func (g *testDepGen) StoreConfig(partitions int) storage.Config {
	return storage.Config{Partitions: partitions, Tables: []storage.TableSpec{
		{ID: testDepTable, Name: "t", ValueSize: 8},
	}}
}
func (g *testDepGen) Load(s *storage.Store) error {
	for k := storage.Key(0); k < 64; k++ {
		s.Table(testDepTable).Insert(k, nil)
	}
	return nil
}
func (g *testDepGen) Registry() txn.Registry {
	return txn.Registry{
		workload.OpBaseTest: func(c *txn.FragCtx) error {
			for _, v := range c.F.PubVars {
				c.T.Publish(v, 7)
			}
			return nil
		},
		workload.OpBaseTest + 1: func(c *txn.FragCtx) error {
			for _, v := range c.F.NeedVars {
				_ = c.T.Var(v)
			}
			return nil
		},
	}
}
func (g *testDepGen) NextBatch(int) []*txn.Txn { return g.batch }

// depTxn builds one transaction from (key, access, pub, need) fragment specs.
func depTxn(id uint64, frags ...txn.Fragment) *txn.Txn {
	t := &txn.Txn{ID: id, Frags: frags}
	t.Finish()
	return t
}

// TestForwardingValidation: the deterministic engines must reject dependency
// shapes the forwarding round cannot execute soundly — undeclared publishers,
// cross-node publishers that write, and cross-node publishers of records
// written in the same batch — and accept the equivalent node-local shapes.
func TestForwardingValidation(t *testing.T) {
	// 4 partitions over 2 nodes: keys 0,2 -> node 0; keys 1,3 -> node 1.
	const parts, nodes = 4, 2
	read := func(key storage.Key, pub ...uint8) txn.Fragment {
		return txn.Fragment{Table: testDepTable, Key: key, Access: txn.Read, Op: workload.OpBaseTest, PubVars: pub}
	}
	rmw := func(key storage.Key, pub ...uint8) txn.Fragment {
		return txn.Fragment{Table: testDepTable, Key: key, Access: txn.ReadModifyWrite, Op: workload.OpBaseTest, PubVars: pub}
	}
	consume := func(key storage.Key, need ...uint8) txn.Fragment {
		return txn.Fragment{Table: testDepTable, Key: key, Access: txn.Update, Op: workload.OpBaseTest + 1, NeedVars: need}
	}

	cases := []struct {
		name    string
		batch   []*txn.Txn
		wantErr string // substring; empty = must succeed
	}{
		{
			name:  "cross-node read publisher ok",
			batch: []*txn.Txn{depTxn(1, read(1, 0), consume(0, 0))},
		},
		{
			name:  "same-node write publisher ok",
			batch: []*txn.Txn{depTxn(1, rmw(0, 0), consume(2, 0))},
		},
		{
			name:    "undeclared publisher",
			batch:   []*txn.Txn{depTxn(1, read(1), consume(0, 0))},
			wantErr: "no fragment declares publishing",
		},
		{
			name:    "cross-node write publisher",
			batch:   []*txn.Txn{depTxn(1, rmw(1, 0), consume(0, 0))},
			wantErr: "must be read-only",
		},
		{
			name: "cross-node publisher record written in batch",
			batch: []*txn.Txn{
				depTxn(1, read(1, 0), consume(0, 0)),
				depTxn(2, rmw(1)),
			},
			wantErr: "batch-constant",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := cluster.NewChanTransport(nodes, 0)
			defer tr.Close()
			gen := &testDepGen{batch: tc.batch}
			eng, err := NewQueCCD(tr, gen, parts, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			for _, bt := range tc.batch {
				if rerr := gen.Registry().Resolve(bt); rerr != nil {
					t.Fatal(rerr)
				}
			}
			err = eng.ExecBatch(gen.NextBatch(len(tc.batch)))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}
