// Package bench is the experiment harness: it builds a workload generator, a
// store (or a simulated cluster), and an engine from a declarative Spec,
// drives a fixed number of batches, and reports a metrics snapshot. The
// named experiments in experiments.go regenerate every table and figure of
// the paper's evaluation (see DESIGN.md §6 for the index).
package bench

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/exploratory-systems/qotp/internal/cluster"
	"github.com/exploratory-systems/qotp/internal/core"
	"github.com/exploratory-systems/qotp/internal/dist"
	"github.com/exploratory-systems/qotp/internal/engine"
	"github.com/exploratory-systems/qotp/internal/metrics"
	"github.com/exploratory-systems/qotp/internal/obs"
	"github.com/exploratory-systems/qotp/internal/repl"
	"github.com/exploratory-systems/qotp/internal/serve"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/wal"
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
	// NoArena disables arena-backed transaction generation, restoring the
	// pre-arena hot path (one heap allocation per txn/fragment-slice/arg
	// list). Centralized runs use arenas by default; this knob exists so the
	// allocation experiments (E14) can measure the old behavior.
	NoArena bool
	// Clients > 0 drives the run through the serving path (serve.Server over
	// the engine) instead of the batch harness: that many concurrent client
	// goroutines submit single transactions, the batch former groups them
	// (ClientMaxBatch/ClientMaxDelay), and latency is the honest per-txn
	// enqueue-to-commit time — the batch driver's shared-commit-point
	// ObserveN cannot distinguish transactions within a batch.
	Clients int
	// OpenLoop submits without waiting for outcomes (arrivals not gated on
	// completions; the bounded queue supplies backpressure). Default is the
	// closed loop: each client waits for its transaction's outcome before
	// submitting the next.
	OpenLoop bool
	// ClientMaxBatch/ClientMaxDelay tune the batch former (defaults:
	// BatchSize and 1ms).
	ClientMaxBatch int
	ClientMaxDelay time.Duration
	// ClientMaxPending bounds the serving path's submission queue
	// (serve.Config.MaxPending; default 4x ClientMaxBatch). The overload
	// experiment (E21) shrinks it so saturation arrives within the run.
	ClientMaxPending int
	// Shed turns off Block in the serving path: a full submission queue
	// rejects with ErrOverloaded instead of blocking the submitter. Clients
	// treat the rejection as a dropped request and press on — the overload
	// experiment (E21) measures that a saturated server sheds load at a
	// bounded queue instead of collapsing. Requires Clients > 0.
	Shed bool
	// SpeculativeAcks opts the serving path into early provisional
	// acknowledgements (requires a speculating engine — quecc-spec):
	// closed-loop clients gate their next submission on the speculative ack
	// instead of the final verdict, and the latency histogram records
	// time-to-first-ack — the client-visible response time cross-batch
	// speculation exists to shrink.
	SpeculativeAcks bool
	// WALSync attaches a segmented write-ahead log (in a temporary directory,
	// removed after the run) with the given sync policy: "each", "group" or
	// "off"; empty disables the WAL. Client runs log in the serving path
	// (serve.Config.WAL, before dispatch); batch-harness runs log at the
	// engine's commit hook (queue engines) or the distributed leader's ship
	// point (quecc-d*). The WAL sync-policy overhead experiment (E18) sweeps
	// this knob.
	WALSync string
	// Replicas attaches the replication layer (internal/repl): the run's
	// queue log streams to that many log-only standby followers over an
	// in-process mesh, with ReplAck selecting the ack mode — "async"
	// (stream, never wait) or "k=N" (each commit gates on N follower acks).
	// Replication subsumes WALSync's standalone writer: the replicated log
	// IS the leader's WAL, and WALSync (if set) picks its sync policy. The
	// replication ladder experiment (E19) sweeps this knob.
	Replicas int
	ReplAck  string
	// ReplTCP runs the replication mesh over the in-process TCP loopback
	// (real sockets, heartbeats and the suspect-based failure detector)
	// instead of the channel transport — the fabric the failover experiment
	// (E20) kills a leader on. Steady-state E20 rows set it too, so the
	// kill rows are compared against a baseline paying the same transport.
	ReplTCP bool
	// FailoverKillAt > 0 severs the replication leader's transport endpoint
	// after that many measured batches: the standbys' failure detectors
	// fire, they elect a replacement among themselves, and the run resumes
	// on the promoted node's reopened log. The batch stream blocks for the
	// whole outage, so the measured throughput carries the dip and
	// Result.FailoverDowntime the outage length. Requires harness mode
	// (Clients == 0), a wait-k ack mode (acked batches must be
	// standby-durable for the stream to continue seamlessly) and ReplTCP.
	FailoverKillAt int
}

func (s *Spec) normalize() error {
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
	if s.ClientMaxBatch == 0 {
		s.ClientMaxBatch = s.BatchSize
	}
	if s.ClientMaxDelay == 0 {
		s.ClientMaxDelay = time.Millisecond
	}
	if s.Shed && s.Clients == 0 {
		return fmt.Errorf("bench: Shed requires the serving path (Clients > 0)")
	}
	return nil
}

// Result is the outcome of one run.
type Result struct {
	Spec     Spec
	Engine   string
	Snapshot metrics.Snapshot
	// AllocsPerTxn is the heap allocations per processed transaction over
	// the measured window (runtime mallocs delta / (committed + aborted)) —
	// the hot-path allocation budget the arena/pipeline work drives down.
	AllocsPerTxn float64
	// BytesPerMsg is the mean network payload size per message (distributed
	// runs only; 0 otherwise) — the wire-size budget the varint codec drives
	// down.
	BytesPerMsg float64
	// FailoverDowntime is the leader-kill outage (endpoint severed to log
	// reopened on the promoted standby); zero unless Spec.FailoverKillAt
	// triggered.
	FailoverDowntime time.Duration
	// Sheds counts ErrOverloaded rejections over the measured window (serving
	// path with Spec.Shed); MaxQueueDepth is the highest sampled submission
	// queue depth. A shed row showing MaxQueueDepth bounded by
	// ClientMaxPending with throughput near the block baseline is the
	// shed-not-collapse evidence the overload experiment (E21) pins.
	Sheds         uint64
	MaxQueueDepth int64
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
	if err := s.normalize(); err != nil {
		return Result{}, err
	}
	gen, err := buildGenerator(&s)
	if err != nil {
		return Result{}, err
	}

	// The batch logger is the run's durability hook: the standalone WAL
	// writer (WALSync alone), or the replication leader (Replicas) streaming
	// the same log to standby followers. Client runs log in the serving
	// path, harness runs at the engine/leader hook — never both, they would
	// log the same batches twice.
	var wopts wal.Options
	if s.WALSync != "" {
		pol, perr := wal.ParseSyncPolicy(s.WALSync)
		if perr != nil {
			return Result{}, fmt.Errorf("bench: WALSync: %w", perr)
		}
		wopts.Sync = pol
	}
	var batchLogger core.BatchLogger
	var fl *failoverLogger
	if s.Replicas > 0 {
		ack, waitFor, aerr := repl.ParseAckMode(s.ReplAck)
		if aerr != nil {
			return Result{}, aerr
		}
		if s.FailoverKillAt > 0 {
			switch {
			case !s.ReplTCP:
				return Result{}, fmt.Errorf("bench: FailoverKillAt requires ReplTCP (the failure detector lives in the TCP transport)")
			case ack != repl.AckWaitK:
				return Result{}, fmt.Errorf("bench: FailoverKillAt requires a wait-k ReplAck, got %q", s.ReplAck)
			case s.Clients > 0:
				return Result{}, fmt.Errorf("bench: FailoverKillAt requires harness mode (Clients == 0)")
			case s.FailoverKillAt >= s.Batches:
				return Result{}, fmt.Errorf("bench: FailoverKillAt %d is past the measured run (%d batches)", s.FailoverKillAt, s.Batches)
			}
		}
		var rtr cluster.Transport
		var lb *cluster.LoopbackTCP
		if s.ReplTCP {
			var terr error
			lb, terr = cluster.StartLoopbackTCPOpts(s.Replicas+1, cluster.TCPOptions{
				HeartbeatEvery: 20 * time.Millisecond,
				SuspectAfter:   250 * time.Millisecond,
			})
			if terr != nil {
				return Result{}, terr
			}
			defer lb.Close()
			rtr = lb
		} else {
			ct := cluster.NewChanTransport(s.Replicas+1, 0)
			defer ct.Close()
			rtr = ct
		}
		root, derr := os.MkdirTemp("", "qotp-bench-repl-")
		if derr != nil {
			return Result{}, derr
		}
		defer os.RemoveAll(root)
		promoCh := make(chan benchPromotion, s.Replicas)
		dirs := make(map[int]string, s.Replicas)
		followers := make([]int, 0, s.Replicas)
		for id := 1; id <= s.Replicas; id++ {
			followers = append(followers, id)
			dirs[id] = fmt.Sprintf("%s/node%d", root, id)
		}
		for _, id := range followers {
			fo := repl.FollowerOptions{Dir: dirs[id], WAL: wopts}
			if s.FailoverKillAt > 0 {
				// Election-enabled standby: peers are the other standbys.
				for _, p := range followers {
					if p != id {
						fo.Peers = append(fo.Peers, p)
					}
				}
				fo.Heartbeat = 20 * time.Millisecond
				fo.ElectionTimeout = 150 * time.Millisecond
				id := id
				fo.OnPromoted = func(term uint64) { promoCh <- benchPromotion{id: id, term: term} }
			}
			f, ferr := repl.StartFollower(rtr, id, 0, fo)
			if ferr != nil {
				return Result{}, ferr
			}
			defer f.Close()
		}
		ldr, lerr := repl.OpenLeader(root+"/leader", rtr, 0, followers, repl.Options{
			Ack: ack, WaitFor: waitFor, WAL: wopts,
		})
		if lerr != nil {
			return Result{}, lerr
		}
		if s.FailoverKillAt > 0 {
			fl = &failoverLogger{
				lb: lb, ldr: ldr, dirs: dirs, ids: followers,
				killAfter: s.WarmupBatches + s.FailoverKillAt,
				promoCh:   promoCh, ack: ack, waitFor: waitFor, wopts: wopts,
			}
			defer fl.Close()
			batchLogger = fl
		} else {
			defer ldr.Close()
			batchLogger = ldr
		}
	} else if s.WALSync != "" {
		dir, derr := os.MkdirTemp("", "qotp-bench-wal-")
		if derr != nil {
			return Result{}, derr
		}
		defer os.RemoveAll(dir)
		walWriter, werr := wal.Open(dir, wopts)
		if werr != nil {
			return Result{}, werr
		}
		defer walWriter.Close()
		batchLogger = walWriter
	}
	var engineLogger core.BatchLogger
	if batchLogger != nil && s.Clients == 0 {
		engineLogger = batchLogger
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
		if engineLogger != nil {
			qd, ok := eng.(*dist.QueCCD)
			if !ok {
				return Result{}, fmt.Errorf("bench: WALSync on a distributed harness run requires quecc-d*, got %q", s.Engine)
			}
			qd.SetLogger(engineLogger)
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
		// engineLogger is the engine-level batch logger; only the queue
		// engines have the hook, and the table refuses it for the rest.
		eng, err = proto.New(store, s.Planners, s.Threads, engineLogger)
		if err != nil {
			return Result{}, fmt.Errorf("bench: %w", err)
		}
	}
	defer eng.Close()

	if s.Clients > 0 {
		return runClients(s, gen, eng, tr, batchLogger)
	}

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
	if setter, ok := gen.(arenaSetter); ok && s.Engine != "hstore-d" && !s.NoArena {
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
	res := Result{Spec: s, Engine: eng.Name(), Snapshot: snap}
	if fl != nil {
		if fl.downtime == 0 {
			return Result{}, fmt.Errorf("bench: FailoverKillAt %d never triggered (%d batches logged)", s.FailoverKillAt, fl.batches)
		}
		res.FailoverDowntime = fl.downtime
	}
	if processed := snap.Committed + snap.UserAborts; processed > 0 {
		res.AllocsPerTxn = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(processed)
	}
	if snap.Messages > 0 {
		res.BytesPerMsg = float64(snap.Bytes) / float64(snap.Messages)
	}
	return res, nil
}

// runClients drives one spec through the serving path: s.Clients concurrent
// goroutines submit the same deterministic stream the batch driver would
// execute, one transaction at a time, through a serve.Server over the
// engine. The reported latency histogram holds one enqueue-to-commit sample
// per transaction. Generation is heap-backed: a submitted transaction's
// lifetime is unbounded (it ends at its batch's commit, which the generator
// cannot see), so the arena batch-lifetime rule does not apply.
func runClients(s Spec, gen workload.Generator, eng engine.Engine, tr cluster.Transport, lg core.BatchLogger) (Result, error) {
	// Every client run carries a live obs registry: the queue-depth sampler
	// below reads the same qotp_serve_queue_depth gauge an operator would
	// scrape, so the reported MaxQueueDepth is the observable number.
	reg := obs.New()
	cfg := serve.Config{
		MaxBatch:        s.ClientMaxBatch,
		MaxDelay:        s.ClientMaxDelay,
		MaxPending:      s.ClientMaxPending,
		Block:           !s.Shed, // blocking backpressure unless the spec sheds
		SpeculativeAcks: s.SpeculativeAcks,
		Metrics:         reg,
	}
	if lg != nil {
		cfg.WAL = lg
	}
	srv, err := serve.New(eng, cfg)
	if err != nil {
		return Result{}, err
	}
	defer srv.Close()

	genBatch := func(n int) []*txn.Txn { return workload.GenStream(gen, n, s.BatchSize) }
	drive := func(stream []*txn.Txn) error {
		ctx := context.Background()
		var wg sync.WaitGroup
		errs := make(chan error, s.Clients)
		for c := 0; c < s.Clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				sess := srv.Session()
				// One loop for every client shape: submit, and — closed loop
				// only — gate the next submission on the transaction's ack,
				// which is the provisional one when the serving path publishes
				// speculative acks (the client-visible response) and the final
				// outcome otherwise (Future.Speculative is then Done). Final
				// verdicts, which may retract some acks, are settled once the
				// stream is exhausted.
				futs := make([]*serve.Future, 0, (len(stream)+s.Clients-1)/s.Clients)
				for i := c; i < len(stream); i += s.Clients {
					fut, err := sess.Submit(ctx, stream[i])
					if err != nil {
						if s.Shed && errors.Is(err, serve.ErrOverloaded) {
							// Shed: the server already counted it; the
							// arrival stream presses on.
							continue
						}
						errs <- err
						return
					}
					if !s.OpenLoop {
						<-fut.Speculative()
					}
					futs = append(futs, fut)
				}
				for _, fut := range futs {
					if out := fut.Outcome(); out.Err != nil {
						errs <- out.Err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		select {
		case err := <-errs:
			return err
		default:
			return nil
		}
	}

	if err := drive(genBatch(s.WarmupBatches * s.BatchSize)); err != nil {
		return Result{}, fmt.Errorf("bench: client warmup: %w", err)
	}
	srv.Stats().Reset()
	var preMsgs, preBytes uint64
	if tr != nil {
		preMsgs = tr.Messages()
		preBytes = tr.Bytes()
	}
	stream := genBatch(s.Batches * s.BatchSize)
	preSheds := srv.Sheds()
	// Queue-depth sampler: polls the gauge the /metrics endpoint exports.
	// Sampling necessarily undercounts instantaneous spikes, but the bound it
	// checks — depth never exceeds MaxPending — holds for any sample.
	var maxDepth int64
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(250 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				if d, ok := reg.Value("qotp_serve_queue_depth"); ok && int64(d) > maxDepth {
					maxDepth = int64(d)
				}
			}
		}
	}()
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	err = drive(stream)
	elapsed := time.Since(start)
	close(stopSampler)
	<-samplerDone
	if err != nil {
		return Result{}, fmt.Errorf("bench: client run: %w", err)
	}
	runtime.ReadMemStats(&memAfter)
	snap := srv.Stats().Snap(elapsed)
	if tr != nil {
		snap.Messages = tr.Messages() - preMsgs
		snap.Bytes = tr.Bytes() - preBytes
	}
	loop := "closed"
	if s.OpenLoop {
		loop = "open"
	}
	if s.SpeculativeAcks {
		loop += "+specack"
	}
	if s.Shed {
		loop += "+shed"
	}
	res := Result{
		Spec: s, Engine: fmt.Sprintf("%s+client/%s/c=%d", eng.Name(), loop, s.Clients), Snapshot: snap,
		Sheds: srv.Sheds() - preSheds, MaxQueueDepth: maxDepth,
	}
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

// Report renders results as an aligned table (metrics.Table).
func Report(results []Result) string {
	names := make([]string, 0, len(results))
	snaps := make([]metrics.Snapshot, 0, len(results))
	for _, r := range results {
		names = append(names, r.Engine)
		snaps = append(snaps, r.Snapshot)
	}
	return metrics.Table(names, snaps)
}
