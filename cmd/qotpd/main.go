// Command qotpd demonstrates the distributed queue-oriented engine over the
// real TCP transport (stdlib net + gob framing): it launches an n-node
// cluster on loopback sockets, runs a multi-partition workload through
// QueCC-D, and verifies the cluster state against a serial centralized run.
// The leader is the pipelined one: batch k+1 is planned and encoded while the
// cluster executes batch k over the sockets.
//
// The -workload tpcc variant runs distributed TPC-C (partition-per-warehouse)
// with remote NewOrder lines, whose item prices are forwarded across nodes in
// the MsgVars round — cross-node data dependencies over real sockets.
//
// With -serve the daemon opens a client port in front of the distributed
// leader: the batch-native cluster is driven not by a harness loop but by
// remote clients submitting single transactions over TCP (serve.RemoteClient),
// which the leader's batch former groups into deterministic batches
// (group commit: -batch caps a batch, -maxdelay bounds its wait while the
// engine is busy, an idle engine takes it at once) and answers one outcome per
// transaction. -clients/-ctxns size the demo load; -loop picks closed
// (submit, wait, repeat) or open (submit continuously against the bounded
// queue). With -clients 1 the submission order is deterministic, so the
// cluster state is additionally verified against the serial reference over
// the full wire path.
//
// -http attaches the observability endpoint (/healthz, /readyz, /metrics)
// over one registry shared by the engine mesh, the engine and the serving
// layer; it closes when the run ends.
//
// Write-ahead logging, replication and failover are library features with
// their own over-TCP tests (internal/wal TestQueCCDRejoinRecovers,
// internal/repl TestReplRejoinMidStreamTCP and TestFailoverElectionTCP); the
// daemon does not re-drive them.
//
// Usage:
//
//	qotpd -nodes 4 -batches 10 -batch 2000
//	qotpd -nodes 4 -workload tpcc -warehouses 8 -remote 0.1
//	qotpd -nodes 2 -serve -clients 8 -ctxns 1000 -loop open
//	qotpd -nodes 2 -serve -clients 1 -http 127.0.0.1:8080
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"github.com/exploratory-systems/qotp/internal/cluster"
	"github.com/exploratory-systems/qotp/internal/core"
	"github.com/exploratory-systems/qotp/internal/dist"
	"github.com/exploratory-systems/qotp/internal/engine"
	"github.com/exploratory-systems/qotp/internal/obs"
	"github.com/exploratory-systems/qotp/internal/serve"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/workload"
	"github.com/exploratory-systems/qotp/internal/workload/tpcc"
	"github.com/exploratory-systems/qotp/internal/workload/ycsb"
)

func main() {
	var (
		nodes      = flag.Int("nodes", 2, "cluster size")
		batches    = flag.Int("batches", 5, "number of batches")
		batchSize  = flag.Int("batch", 2000, "transactions per batch (MaxBatch in -serve mode)")
		execs      = flag.Int("executors", 2, "executors per node")
		wl         = flag.String("workload", "ycsb", "workload: ycsb or tpcc")
		warehouses = flag.Int("warehouses", 0, "tpcc warehouses (default 2x nodes; must be >= nodes)")
		remote     = flag.Float64("remote", 0.1, "tpcc remote order-line fraction (cross-node data dependencies)")
		serveMode  = flag.Bool("serve", false, "open a TCP client port in front of the leader and drive it with remote clients")
		clients    = flag.Int("clients", 8, "concurrent remote clients (-serve mode)")
		ctxns      = flag.Int("ctxns", 1000, "transactions submitted per client (-serve mode)")
		loop       = flag.String("loop", "closed", "client loop in -serve mode: closed or open")
		maxDelay   = flag.Duration("maxdelay", time.Millisecond, "batch former MaxDelay: the longest a batch waits for more arrivals while the engine is busy; an idle engine takes it at once (-serve mode)")
		httpAddr   = flag.String("http", "", "observability HTTP endpoint exposing /healthz, /readyz and /metrics (Prometheus text + JSON) for queue depth, batch fill, mesh traffic and more; e.g. :8080 (empty = off)")
	)
	flag.Parse()
	if *nodes < 1 {
		log.Fatalf("qotpd: -nodes must be >= 1, got %d", *nodes)
	}
	if *batches < 1 || *batchSize < 1 || *execs < 1 {
		log.Fatal("qotpd: -batches, -batch and -executors must be >= 1")
	}
	if *serveMode && (*clients < 1 || *ctxns < 1) {
		log.Fatal("qotpd: -clients and -ctxns must be >= 1")
	}
	if *loop != "closed" && *loop != "open" {
		log.Fatalf("qotpd: -loop must be closed or open, got %q", *loop)
	}

	// Observability: one registry shared by the engine mesh, the engine and
	// the serving layer, rendered live at -http. All layer config fields
	// accept a nil registry, so the wiring below is unconditional.
	var reg *obs.Registry
	if *httpAddr != "" {
		reg = obs.New()
		s, err := obs.Serve(*httpAddr, reg)
		if err != nil {
			log.Fatalf("qotpd: %v", err)
		}
		defer s.Close()
		fmt.Printf("observability endpoint on http://%s (/healthz /readyz /metrics)\n", s.Addr())
	}

	var parts int
	var mkGen func() workload.Generator
	switch *wl {
	case "ycsb":
		parts = *nodes * 2
		mkGen = func() workload.Generator {
			return ycsb.MustNew(ycsb.Config{
				Records: 1 << 14, OpsPerTxn: 8, ReadRatio: 0.5, RMWRatio: 0.25,
				Theta: 0.6, MultiPartitionRatio: 0.3, MultiPartitionCount: 2,
				Partitions: parts, Seed: 99,
			})
		}
	case "tpcc":
		w := *warehouses
		if w == 0 {
			w = *nodes * 2
		}
		if w < *nodes {
			log.Fatalf("qotpd: -warehouses (%d) must be >= -nodes (%d): TPC-C is partition-per-warehouse", w, *nodes)
		}
		parts = w
		mkGen = func() workload.Generator {
			return tpcc.MustNew(tpcc.Config{
				Warehouses: w, Partitions: w,
				Items: 2000, CustomersPerDistrict: 300, InitialOrdersPerDistrict: 50,
				RemoteStockProb: *remote, Seed: 99,
			})
		}
	default:
		log.Fatalf("qotpd: unknown workload %q (have ycsb, tpcc)", *wl)
	}

	// Serial reference for verification. A deterministic submission order is
	// required, so it applies to the harness mode and to -serve with a single
	// closed-loop client; concurrent clients interleave nondeterministically
	// and are verified by outcome accounting instead.
	verifiable := !*serveMode || (*clients == 1 && *loop == "closed")
	var refStore *storage.Store
	if verifiable {
		refGen := mkGen()
		refStore = storage.MustOpen(refGen.StoreConfig(parts))
		if err := refGen.Load(refStore); err != nil {
			log.Fatal(err)
		}
		refEng, err := core.New(refStore, core.Config{Planners: 1, Executors: 1})
		if err != nil {
			log.Fatal(err)
		}
		total := *batches * *batchSize
		if *serveMode {
			total = *clients * *ctxns
		}
		for total > 0 {
			n := min(total, *batchSize)
			total -= n
			if err := refEng.ExecBatch(refGen.NextBatch(n)); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Real TCP transports on loopback (cluster.StartLoopbackTCP): bind with
	// :0, share addresses, connect the mesh. qotpd demonstrates the wire
	// path in one process; production deploys one TCPTransport per host with
	// a static address list.
	meshOpts := cluster.DefaultTCPOptions()
	meshOpts.Metrics, meshOpts.MetricsMesh = reg, "engine"
	multi, err := cluster.StartLoopbackTCPOpts(*nodes, meshOpts)
	if err != nil {
		log.Fatal(err)
	}
	defer multi.Close()
	for i, addr := range multi.Addrs() {
		fmt.Printf("node %d listening on %s\n", i, addr)
	}

	// QueCC-D drives all nodes; node 0's transport carries the leader role.
	// The engine is transport-agnostic: the same code ran over ChanTransport
	// in the benchmarks.
	gen := mkGen()
	eng, err := dist.NewQueCCD(multi, gen, parts, *execs, dist.ArgPipeline)
	if err != nil {
		log.Fatal(err)
	}
	if reg != nil {
		obs.CollectStats(reg, "qotp_engine", eng.Stats())
	}

	if *serveMode {
		srv, err := serve.New(eng, serve.Config{MaxBatch: *batchSize, MaxDelay: *maxDelay, Block: true, Metrics: reg})
		if err != nil {
			log.Fatal(err)
		}
		serveClients(srv, gen, *clients, *ctxns, *batchSize, *loop == "open")
		if err := srv.Close(); err != nil {
			log.Fatal(err)
		}
		verifyHash(eng, mkGen, parts, refStore)
		return
	}

	// Submit returns once the predecessor batch has committed; Drain waits
	// for the last one.
	drv := engine.Drive(eng)
	start := time.Now()
	for b := 0; b < *batches; b++ {
		if err := drv.Submit(gen.NextBatch(*batchSize)); err != nil {
			log.Fatal(err)
		}
	}
	if err := drv.Drain(); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	snap := eng.Stats().Snap(elapsed)
	fmt.Printf("\ncommitted %d txns in %v over TCP — %.0f txn/s, %d messages\n",
		snap.Committed, elapsed.Round(time.Millisecond), snap.Throughput, multi.Messages())
	verifyHash(eng, mkGen, parts, refStore)
}

// verifyHash checks the cluster state against the serial reference when one
// exists (nil refStore = nondeterministic submission order, skip).
func verifyHash(eng *dist.QueCCD, mkGen func() workload.Generator, parts int, refStore *storage.Store) {
	if refStore == nil {
		fmt.Println("state-hash verification skipped: concurrent clients have no deterministic reference order")
		return
	}
	var tables []storage.TableID
	for _, ts := range mkGen().StoreConfig(parts).Tables {
		tables = append(tables, ts.ID)
	}
	got := dist.ClusterStateHash(eng.Stores(), tables)
	want := refStore.StateHash()
	if got != want {
		log.Fatalf("cluster state %x != serial reference %x", got, want)
	}
	fmt.Printf("cluster state hash %x matches the serial reference — deterministic over real sockets\n", got)
}

// serveClients opens the client port and drives it with remote clients over
// real TCP, then reports per-transaction latency percentiles (enqueue to
// commit) and outcome accounting.
func serveClients(srv *serve.Server, gen workload.Generator, clients, ctxns, genChunk int, open bool) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ts := serve.ServeTCP(lis, srv, gen.Registry())
	defer ts.Close()
	fmt.Printf("client port listening on %s (%d clients x %d txns, %s loop)\n",
		ts.Addr(), clients, ctxns, map[bool]string{true: "open", false: "closed"}[open])

	// One generator feeds all clients: pre-generate and split round-robin so
	// the offered work is the same deterministic stream the harness would
	// run, chunked exactly as the serial reference generated it (see
	// workload.GenStream for why the chunking matters).
	stream := workload.GenStream(gen, clients*ctxns, genChunk)
	var wg sync.WaitGroup
	var mu sync.Mutex
	committed, aborted, failed := 0, 0, 0
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rc, err := serve.DialTCP(ts.Addr().String())
			if err != nil {
				log.Fatalf("client %d: %v", c, err)
			}
			defer rc.Close()
			ctx := context.Background()
			var futs []*serve.Future
			ok, ab, bad := 0, 0, 0
			count := func(out serve.Outcome) {
				switch {
				case out.Err != nil:
					bad++
				case out.Committed:
					ok++
				default:
					ab++
				}
			}
			for i := c; i < len(stream); i += clients {
				if open {
					fut, err := rc.Submit(ctx, stream[i])
					if err != nil {
						log.Fatalf("client %d submit: %v", c, err)
					}
					futs = append(futs, fut)
					continue
				}
				out, err := rc.Exec(ctx, stream[i])
				if err != nil {
					log.Fatalf("client %d exec: %v", c, err)
				}
				count(out)
			}
			for _, fut := range futs {
				count(fut.Outcome())
			}
			mu.Lock()
			committed += ok
			aborted += ab
			failed += bad
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if committed+aborted+failed != len(stream) || failed > 0 {
		log.Fatalf("outcome accounting broken: committed=%d aborted=%d failed=%d of %d",
			committed, aborted, failed, len(stream))
	}
	snap := srv.Stats().Snap(elapsed)
	fmt.Printf("\n%d committed, %d aborted by logic in %v — %.0f txn/s through the client port\n",
		committed, aborted, elapsed.Round(time.Millisecond), snap.Throughput)
	fmt.Printf("per-txn latency (enqueue->commit): mean=%v p50=%v p99=%v p999=%v\n",
		snap.MeanLat, snap.P50, snap.P99, snap.P999)
}
