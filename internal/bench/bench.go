// Package bench is the experiment harness: it builds a workload generator, a
// store (or a simulated cluster), and an engine from a declarative Spec,
// drives a fixed number of batches, and reports a metrics snapshot. The
// named experiments in experiments.go regenerate every table and figure of
// the paper's evaluation; each Experiment's Artifact names the one it
// regenerates.
package bench

import (
	"fmt"
	"runtime"
	"time"

	"github.com/exploratory-systems/qotp/internal/cluster"
	"github.com/exploratory-systems/qotp/internal/dist"
	"github.com/exploratory-systems/qotp/internal/engine"
	"github.com/exploratory-systems/qotp/internal/metrics"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/workload"
	"github.com/exploratory-systems/qotp/internal/workload/bank"
	"github.com/exploratory-systems/qotp/internal/workload/tpcc"
	"github.com/exploratory-systems/qotp/internal/workload/ycsb"
)

// Spec declares one benchmark run.
type Spec struct {
	// Engine selects the protocol: quecc, quecc-cons, quecc-rc, quecc-pipe,
	// quecc-spec, hstore, calvin, 2pl-nowait, 2pl-waitdie, silo, tictoc,
	// mvto, quecc-d, quecc-d-pipe, quecc-d-spec, calvin-d, calvin-d-pipe,
	// hstore-d. quecc-pipe is the queue engine with the pipelined
	// Submit/Drain driver (planning of batch k+1 overlaps execution of k);
	// quecc-spec additionally executes batch k+1 before batch k's verdict
	// fixpoint completes (cross-batch speculation). quecc-d-pipe /
	// calvin-d-pipe are the distributed engines with the pipelined leader
	// (the leader plans and encodes batch k+1 while the cluster executes
	// batch k); quecc-d-spec adds the deferred-ack speculative leader
	// (batch k+1 ships before batch k's commit acks are collected, with
	// unchanged message rounds).
	Engine string
	// Workload selects the generator: ycsb, tpcc, bank.
	Workload string
	// YCSB / TPCC / Bank hold the workload parameters (the one matching
	// Workload is used; Partitions fields are filled in by Run).
	YCSB ycsb.Config
	TPCC tpcc.Config
	Bank bank.Config
	// Partitions is the store partition count (defaults: 2x Threads for
	// YCSB/bank; TPC-C forces Partitions = Warehouses).
	Partitions int
	// Threads is the executor/worker count (default 4); Planners the
	// planner count for queue engines (default 2).
	Threads  int
	Planners int
	// Batches and BatchSize size the measured run (defaults 10 x 2000).
	Batches   int
	BatchSize int
	// WarmupBatches run before measurement (default 2).
	WarmupBatches int
	// Nodes > 0 runs the distributed engines on a simulated cluster with
	// PerHopLatency injected per message.
	Nodes         int
	PerHopLatency time.Duration
}

func (s *Spec) normalize() {
	if s.Threads == 0 {
		s.Threads = 4
	}
	if s.Planners == 0 {
		s.Planners = 2
	}
	if s.Batches == 0 {
		s.Batches = 10
	}
	if s.BatchSize == 0 {
		s.BatchSize = 2000
	}
	if s.WarmupBatches == 0 {
		s.WarmupBatches = 2
	}
	if s.Workload == "tpcc" {
		if s.TPCC.Warehouses == 0 {
			s.TPCC.Warehouses = 4
		}
		s.Partitions = s.TPCC.Warehouses
		s.TPCC.Partitions = s.TPCC.Warehouses
	}
	if s.Partitions == 0 {
		s.Partitions = 2 * s.Threads
	}
}

// Result is the outcome of one run.
type Result struct {
	Snapshot metrics.Snapshot
	// AllocsPerTxn is the heap allocations per processed transaction over
	// the measured window (runtime mallocs delta / (committed + aborted)) —
	// the hot-path allocation budget the arena/pipeline work drives down.
	AllocsPerTxn float64
	// BytesPerMsg is the mean network payload size per message (distributed
	// runs only; 0 otherwise) — the wire-size budget the varint codec drives
	// down.
	BytesPerMsg float64
}

// buildGenerator constructs the generator for the spec.
func buildGenerator(s *Spec) (workload.Generator, error) {
	switch s.Workload {
	case "ycsb":
		cfg := s.YCSB
		cfg.Partitions = s.Partitions
		return ycsb.New(cfg)
	case "tpcc":
		cfg := s.TPCC
		return tpcc.New(cfg)
	case "bank":
		cfg := s.Bank
		cfg.Partitions = s.Partitions
		return bank.New(cfg)
	default:
		return nil, fmt.Errorf("bench: unknown workload %q", s.Workload)
	}
}

// Run executes one spec and returns its result.
func Run(s Spec) (Result, error) {
	s.normalize()
	gen, err := buildGenerator(&s)
	if err != nil {
		return Result{}, err
	}

	var eng engine.Engine
	var tr cluster.Transport
	if s.Nodes > 0 {
		tr = cluster.NewChanTransport(s.Nodes, s.PerHopLatency)
		defer tr.Close()
		switch s.Engine {
		case "quecc-d":
			eng, err = dist.NewQueCCD(tr, gen, s.Partitions, s.Threads)
		case "quecc-d-pipe":
			eng, err = dist.NewQueCCD(tr, gen, s.Partitions, s.Threads, dist.ArgPipeline)
		case "quecc-d-spec":
			eng, err = dist.NewQueCCD(tr, gen, s.Partitions, s.Threads, dist.ArgSpeculative)
		case "calvin-d":
			eng, err = dist.NewCalvinD(tr, gen, s.Partitions, s.Threads, dist.ArgAbortEval)
		case "calvin-d-pipe":
			eng, err = dist.NewCalvinD(tr, gen, s.Partitions, s.Threads, dist.ArgAbortEval, dist.ArgPipeline)
		case "hstore-d":
			eng, err = dist.NewHStoreD(tr, gen, s.Partitions, s.Threads)
		default:
			return Result{}, fmt.Errorf("bench: engine %q is not distributed (set Nodes=0 or pick quecc-d/quecc-d-pipe/quecc-d-spec/calvin-d/calvin-d-pipe/hstore-d)", s.Engine)
		}
		if err != nil {
			return Result{}, err
		}
	} else {
		store, serr := storage.Open(gen.StoreConfig(s.Partitions))
		if serr != nil {
			return Result{}, serr
		}
		if lerr := gen.Load(store); lerr != nil {
			return Result{}, lerr
		}
		proto, perr := engine.Lookup(s.Engine)
		if perr != nil {
			return Result{}, fmt.Errorf("bench: %w", perr)
		}
		eng, err = proto.New(store, s.Planners, s.Threads, nil)
		if err != nil {
			return Result{}, fmt.Errorf("bench: %w", err)
		}
	}
	defer eng.Close()

	// Arena-backed generation, rotating two arenas: batch k's arena is Reset
	// only when batch k+2 is generated, by which point batch k has fully
	// finished under both the serial and the pipelined drivers (txn.Arena
	// lifetime rule). Cross-batch speculation stretches a batch's lifetime
	// by one generation — batch k may still be pending, and re-executed by
	// the joint repair, while batch k+2 is generated — so speculating
	// engines rotate three arenas instead. This covers the centralized
	// engines and the deterministic distributed leaders — their shipments
	// copy everything they keep (NodePlans / localShadows shadow copies,
	// encoded payloads) before Submit returns, so the generator's
	// transactions die with the batch. H-Store-D keeps heap generation: its
	// per-transaction 2PC payloads alias fragment args with no batch-level
	// reuse point.
	type arenaSetter interface{ SetArena(*txn.Arena) }
	var arenas [3]*txn.Arena
	rot := 2
	drv := engine.Drive(eng)
	if drv.Speculating() {
		rot = 3
	}
	if setter, ok := gen.(arenaSetter); ok && s.Engine != "hstore-d" {
		arenas[0], arenas[1], arenas[2] = &txn.Arena{}, &txn.Arena{}, &txn.Arena{}
		setter.SetArena(arenas[0])
	}
	batchNo := 0
	nextBatch := func() []*txn.Txn {
		if arenas[0] != nil {
			a := arenas[batchNo%rot]
			a.Reset()
			if setter, ok := gen.(arenaSetter); ok {
				setter.SetArena(a)
			}
		}
		batchNo++
		return gen.NextBatch(s.BatchSize)
	}
	// At the end of a stream Finalize waits out the executing batch and
	// forces the verdict fixpoint of a drained-but-pending one: there is no
	// successor to piggyback it on.
	for b := 0; b < s.WarmupBatches; b++ {
		if err := drv.Submit(nextBatch()); err != nil {
			return Result{}, fmt.Errorf("bench: warmup batch %d: %w", b, err)
		}
	}
	if err := drv.Finalize(); err != nil {
		return Result{}, fmt.Errorf("bench: warmup drain: %w", err)
	}
	eng.Stats().Reset()
	var preMsgs, preBytes uint64
	if tr != nil {
		preMsgs = tr.Messages()
		preBytes = tr.Bytes()
	}
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	for b := 0; b < s.Batches; b++ {
		if err := drv.Submit(nextBatch()); err != nil {
			return Result{}, fmt.Errorf("bench: batch %d: %w", b, err)
		}
	}
	if err := drv.Finalize(); err != nil {
		return Result{}, fmt.Errorf("bench: drain: %w", err)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&memAfter)
	snap := eng.Stats().Snap(elapsed)
	if tr != nil {
		// The engines publish cumulative transport counts; report only the
		// measured window.
		snap.Messages = tr.Messages() - preMsgs
		snap.Bytes = tr.Bytes() - preBytes
	}
	res := Result{Snapshot: snap}
	if processed := snap.Committed + snap.UserAborts; processed > 0 {
		res.AllocsPerTxn = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(processed)
	}
	if snap.Messages > 0 {
		res.BytesPerMsg = float64(snap.Bytes) / float64(snap.Messages)
	}
	return res, nil
}

// RunAll executes a list of named specs and returns results in order.
func RunAll(specs []NamedSpec) ([]Result, error) {
	out := make([]Result, 0, len(specs))
	for _, ns := range specs {
		r, err := Run(ns.Spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ns.Name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// NamedSpec pairs a display name with a spec.
type NamedSpec struct {
	Name string
	Spec Spec
}
