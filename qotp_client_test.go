package qotp

// Client-vs-batch conformance: the serving path (qotp.Client — batch former,
// futures, verdict routing) must be invisible to the deterministic engines.
// The same transaction sequence submitted one at a time through a Client,
// under any MaxBatch/MaxDelay forming, must reproduce the batch-driven
// StateHash and per-transaction verdicts — centralized (quecc, quecc-pipe)
// and distributed (quecc-d on 2 nodes). With concurrent sessions the arrival
// interleaving is nondeterministic, so conformance is checked against a
// serial replay of the exact batches the former produced.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/exploratory-systems/qotp/internal/cluster"
	"github.com/exploratory-systems/qotp/internal/core"
	"github.com/exploratory-systems/qotp/internal/dist"
	"github.com/exploratory-systems/qotp/internal/engine"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/workload"
	"github.com/exploratory-systems/qotp/internal/workload/ycsb"
)

const confParts = 8

// confGen builds the conformance stream: multi-partition YCSB with logic
// aborts, so verdict routing (not just state) is exercised.
func confGen(seed uint64) workload.Generator {
	return ycsb.MustNew(ycsb.Config{
		Records: 2048, OpsPerTxn: 6, ReadRatio: 0.3, RMWRatio: 0.4,
		Theta: 0.7, MultiPartitionRatio: 0.4, MultiPartitionCount: 3,
		AbortRatio: 0.05, Partitions: confParts, Seed: seed,
	})
}

// batchReference executes the stream through the plain batch interface on a
// serial engine and returns the final state hash plus per-transaction
// verdicts in stream order.
func batchReference(t *testing.T, seed uint64, total int) (uint64, []bool) {
	t.Helper()
	gen := confGen(seed)
	store := storage.MustOpen(gen.StoreConfig(confParts))
	if err := gen.Load(store); err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(store, core.Config{Planners: 1, Executors: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	batch := gen.NextBatch(total)
	if err := eng.ExecBatch(batch); err != nil {
		t.Fatal(err)
	}
	verdicts := make([]bool, total)
	for i, tx := range batch {
		verdicts[i] = tx.Aborted()
	}
	return store.StateHash(), verdicts
}

// clientEngineCase builds one engine flavor plus a way to hash its final
// state.
type clientEngineCase struct {
	name  string
	build func(t *testing.T, gen workload.Generator) (Engine, func() uint64)
}

func clientEngineCases() []clientEngineCase {
	central := func(pipeline bool) func(t *testing.T, gen workload.Generator) (Engine, func() uint64) {
		return func(t *testing.T, gen workload.Generator) (Engine, func() uint64) {
			t.Helper()
			store := storage.MustOpen(gen.StoreConfig(confParts))
			if err := gen.Load(store); err != nil {
				t.Fatal(err)
			}
			eng, err := core.New(store, core.Config{Planners: 2, Executors: 2, Pipeline: pipeline})
			if err != nil {
				t.Fatal(err)
			}
			return eng, store.StateHash
		}
	}
	return []clientEngineCase{
		{"quecc", central(false)},
		{"quecc-pipe", central(true)},
		{"quecc-d/n=2", func(t *testing.T, gen workload.Generator) (Engine, func() uint64) {
			t.Helper()
			tr := cluster.NewChanTransport(2, 0)
			t.Cleanup(tr.Close)
			eng, err := dist.NewQueCCD(tr, gen, confParts, 2)
			if err != nil {
				t.Fatal(err)
			}
			var tables []storage.TableID
			for _, ts := range confGen(1).StoreConfig(confParts).Tables {
				tables = append(tables, ts.ID)
			}
			return eng, func() uint64 { return dist.ClusterStateHash(eng.Stores(), tables) }
		}},
	}
}

// TestClientMatchesBatchDriven: one session submitting the stream in order,
// across a matrix of forming triggers. Any batch partitioning of an ordered
// stream must land on the batch-driven state hash, and every transaction's
// outcome must match the reference verdict.
func TestClientMatchesBatchDriven(t *testing.T) {
	const seed, total = 31, 600
	wantHash, wantVerdicts := batchReference(t, seed, total)
	shapes := []ClientOptions{
		{MaxBatch: 1, MaxDelay: time.Hour},
		{MaxBatch: 64, MaxDelay: time.Hour},
		{MaxBatch: 1 << 16, MaxDelay: 200 * time.Microsecond},
		{MaxBatch: 97, MaxDelay: 500 * time.Microsecond, Block: true},
	}
	for _, ec := range clientEngineCases() {
		for si, shape := range shapes {
			t.Run(fmt.Sprintf("%s/maxbatch=%d/delay=%v", ec.name, shape.MaxBatch, shape.MaxDelay), func(t *testing.T) {
				gen := confGen(seed)
				eng, hash := ec.build(t, gen)
				cli, err := NewClient(eng, shape)
				if err != nil {
					t.Fatal(err)
				}
				stream := gen.NextBatch(total)
				sess := cli.Session()
				futs := make([]*Future, total)
				ctx := context.Background()
				for i, tx := range stream {
					for {
						fut, err := sess.Submit(ctx, tx)
						if err == ErrOverloaded {
							time.Sleep(50 * time.Microsecond)
							continue
						}
						if err != nil {
							t.Fatalf("submit %d: %v", i, err)
						}
						futs[i] = fut
						break
					}
				}
				// Close first: it waits out every accepted transaction, so
				// each Future below is resolved whatever the forming shape.
				// (The tail batch is not stranded by the hour-long MaxDelay
				// shapes: MaxDelay binds only while the engine is busy, and
				// the former closes a batch once the engine is idle.)
				if err := cli.Close(); err != nil {
					t.Fatal(err)
				}
				for i, fut := range futs {
					out := fut.Outcome()
					if out.Err != nil {
						t.Fatalf("txn %d outcome error: %v", i, out.Err)
					}
					if out.Aborted() != wantVerdicts[i] {
						t.Errorf("txn %d verdict aborted=%v, reference says %v", i, out.Aborted(), wantVerdicts[i])
					}
				}
				if got := hash(); got != wantHash {
					t.Errorf("client-driven state %x != batch-driven reference %x (shape %d)", got, wantHash, si)
				}
				snap := cli.Snapshot()
				if snap.Committed+snap.UserAborts != total {
					t.Errorf("committed(%d)+aborts(%d) != %d", snap.Committed, snap.UserAborts, total)
				}
			})
		}
	}
}

// TestClientVerdictsNondetEngines: "any engine can sit under a Client"
// includes the nondeterministic baselines — their permanent user aborts must
// surface through the transaction's Aborted bit (the commit-path contract
// the serving layer reads), not just in their retry-pool stats.
func TestClientVerdictsNondetEngines(t *testing.T) {
	const total = 400
	for _, proto := range []string{"silo", "2pl-nowait", "mvto"} {
		t.Run(proto, func(t *testing.T) {
			gen := confGen(5)
			db, err := Open(gen, confParts)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := New(proto, db, 2)
			if err != nil {
				t.Fatal(err)
			}
			cli, err := NewClient(eng, ClientOptions{MaxBatch: 64, MaxDelay: time.Millisecond, Block: true})
			if err != nil {
				t.Fatal(err)
			}
			stream := gen.NextBatch(total)
			futs := make([]*Future, total)
			ctx := context.Background()
			for i, tx := range stream {
				if futs[i], err = cli.Submit(ctx, tx); err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
			}
			if err := cli.Close(); err != nil {
				t.Fatal(err)
			}
			committed, aborted := 0, 0
			for i, fut := range futs {
				out := fut.Outcome()
				if out.Err != nil {
					t.Fatalf("txn %d: %v", i, out.Err)
				}
				if out.Committed {
					committed++
				} else {
					aborted++
				}
			}
			es := eng.Stats()
			if aborted == 0 {
				t.Error("abort-carrying workload surfaced no aborted outcomes")
			}
			if uint64(aborted) != es.UserAborts.Load() || uint64(committed) != es.Committed.Load() {
				t.Errorf("client saw %d/%d committed/aborted, engine counted %d/%d",
					committed, aborted, es.Committed.Load(), es.UserAborts.Load())
			}
		})
	}
}

// recordingEngine captures the exact batches the former dispatches so a
// nondeterministic concurrent-session interleaving can be replayed serially.
// Wrapping hides any Pipeliner surface, which is the point: recording is
// only meaningful on the synchronous path.
type recordingEngine struct {
	engine.Engine
	batches [][]*txn.Txn
}

func (r *recordingEngine) ExecBatch(txns []*txn.Txn) error {
	r.batches = append(r.batches, append([]*txn.Txn(nil), txns...))
	return r.Engine.ExecBatch(txns)
}

// TestConcurrentSessionsMatchReplay: several sessions submit concurrently;
// whatever order the former assembled must be reproducible — replaying the
// recorded batches on a fresh serial engine yields the same state hash and
// the same per-transaction verdicts the clients were told.
func TestConcurrentSessionsMatchReplay(t *testing.T) {
	const seed, total, sessions = 77, 600, 4
	for _, ec := range []clientEngineCase{clientEngineCases()[0], clientEngineCases()[2]} {
		t.Run(ec.name, func(t *testing.T) {
			gen := confGen(seed)
			inner, hash := ec.build(t, gen)
			rec := &recordingEngine{Engine: inner}
			cli, err := NewClient(rec, ClientOptions{MaxBatch: 48, MaxDelay: time.Millisecond, Block: true})
			if err != nil {
				t.Fatal(err)
			}
			stream := gen.NextBatch(total)
			outs := make([]Outcome, total)
			var wg sync.WaitGroup
			for s := 0; s < sessions; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					sess := cli.Session()
					ctx := context.Background()
					for i := s; i < total; i += sessions {
						fut, err := sess.Submit(ctx, stream[i])
						if err != nil {
							t.Errorf("session %d submit %d: %v", s, i, err)
							return
						}
						outs[i] = fut.Outcome()
					}
				}(s)
			}
			wg.Wait()
			if err := cli.Close(); err != nil {
				t.Fatal(err)
			}
			got := hash()

			// Serial replay of the recorded batches on a fresh store.
			refGen := confGen(seed)
			refStore := storage.MustOpen(refGen.StoreConfig(confParts))
			if err := refGen.Load(refStore); err != nil {
				t.Fatal(err)
			}
			refEng, err := core.New(refStore, core.Config{Planners: 1, Executors: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer refEng.Close()
			replayed := 0
			for _, batch := range rec.batches {
				for _, tx := range batch {
					tx.Reset()
				}
				if err := refEng.ExecBatch(batch); err != nil {
					t.Fatal(err)
				}
				replayed += len(batch)
			}
			if replayed != total {
				t.Fatalf("recorded batches carry %d transactions, want %d", replayed, total)
			}
			if want := refStore.StateHash(); got != want {
				t.Errorf("concurrent client state %x != serial replay of the formed batches %x", got, want)
			}
			byID := make(map[uint64]Outcome, total)
			for i, tx := range stream {
				byID[tx.ID] = outs[i]
			}
			for _, batch := range rec.batches {
				for _, tx := range batch {
					if out := byID[tx.ID]; out.Aborted() != tx.Aborted() {
						t.Errorf("txn %d: client saw aborted=%v, replay says %v", tx.ID, out.Aborted(), tx.Aborted())
					}
				}
			}
		})
	}
}
