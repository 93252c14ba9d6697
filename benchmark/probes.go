package main

import (
	"context"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"time"

	"github.com/exploratory-systems/qotp"
	"github.com/exploratory-systems/qotp/internal/cluster"
	"github.com/exploratory-systems/qotp/internal/core"
	"github.com/exploratory-systems/qotp/internal/metrics"
	"github.com/exploratory-systems/qotp/internal/obs"
	"github.com/exploratory-systems/qotp/internal/serve"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/wal"
	"github.com/exploratory-systems/qotp/internal/workload/ycsb"
)

// Probes measure one layer alone, through its public functions, at the end of
// a traced run. They price what a layer's work costs per unit, so a change in
// a workload's per-layer counters can be turned into time.

// perOp runs fn n times and returns nanoseconds per call.
func perOp(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// probeCodec times the batch codec on the workload's own transactions and
// returns the exact wire bytes per transaction.
func probeCodec(L *metricSet, txns []*txn.Txn) float64 {
	n := float64(len(txns))
	buf := txn.AppendBatch(nil, txns)
	reps := max(1, 200000/len(txns))
	L.set("txn.encode_ns_per_txn", perOp(reps, func(int) { buf = txn.AppendBatch(buf[:0], txns) })/n)
	wire := float64(len(buf)) / n
	L.set("txn.wire_bytes_per_txn", wire)
	a := &txn.Arena{}
	_, before := mallocs()
	if _, _, err := txn.DecodeBatchArena(buf, a); err != nil {
		panic(err) // the codec failed to read its own output
	}
	_, after := mallocs()
	L.set("txn.arena_bytes_per_txn", float64(after-before)/n)
	L.set("txn.decode_ns_per_txn", perOp(reps, func(int) {
		a.Reset()
		_, _, _ = txn.DecodeBatchArena(buf, a)
	})/n)
	return wire
}

type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// probeStorage times point lookups, inserts and the snapshot writer on the
// workload's own store (its largest table, at the size the run left it).
func probeStorage(rc *runCtx, L *metricSet, st *storage.Store) {
	var tbl *storage.Table
	for id := 0; id < 256; id++ {
		if t := st.Table(storage.TableID(id)); t != nil && (tbl == nil || t.Len() > tbl.Len()) {
			tbl = t
		}
	}
	keys := tbl.Keys()
	stride := 7919 // prime: spreads consecutive lookups over the key space
	L.set("storage.get_ns", perOp(pick(rc, 400000, 4000), func(i int) { tbl.Get(keys[(i*stride)%len(keys)]) }))
	parts := storage.Key(st.Partitions())
	fresh := keys[len(keys)-1]/parts*parts + parts // past the largest key, spread over partitions
	L.set("storage.insert_ns", perOp(pick(rc, 100000, 1000), func(i int) { tbl.Insert(fresh+storage.Key(i), nil) }))
	var cw countWriter
	start := time.Now()
	if err := st.WriteSnapshot(&cw); err != nil {
		panic(err) // the writer cannot fail
	}
	L.set("storage.snapshot_mb_per_s", float64(cw.n)/(1<<20)/time.Since(start).Seconds())
}

// probeScrape times rendering /metrics for a run's whole registry.
func probeScrape(reg *obs.Registry) float64 {
	return perOp(20, func(int) { obs.WritePrometheus(io.Discard, reg) }) / 1e6
}

// probeLayers runs the workload-independent probes.
func probeLayers(rc *runCtx, L *metricSet) {
	// cluster: a 16 KiB ping-pong over real loopback sockets, and one hop of
	// the in-process transport.
	if lb, err := cluster.StartLoopbackTCP(2); err == nil {
		echoDone := make(chan struct{})
		go func() { // echoes until the transport closes
			defer close(echoDone)
			for {
				m, ok := lb.Recv(1)
				if !ok {
					return
				}
				m.From, m.To = 1, 0
				if lb.Send(m) != nil {
					return
				}
			}
		}()
		payload := make([]byte, 16<<10)
		ping := func(int) {
			if lb.Send(cluster.Msg{Type: cluster.MsgAck, From: 0, To: 1, Payload: payload}) == nil {
				lb.Recv(0)
			}
		}
		perOp(20, ping)
		rounds := pick(rc, 400, 40)
		before, _ := mallocs()
		L.set("cluster.tcp_rtt_us", perOp(rounds, ping)/1e3)
		after, _ := mallocs()
		L.set("cluster.tcp_allocs_per_msg", float64(after-before)/float64(2*rounds))
		lb.Close()
		<-echoDone
	} else {
		rc.note("cluster tcp probe skipped: %v", err)
	}
	ct := cluster.NewChanTransport(2, 0)
	L.set("cluster.chan_send_ns", perOp(pick(rc, 200000, 2000), func(int) {
		_ = ct.Send(cluster.Msg{Type: cluster.MsgAck, From: 0, To: 1})
		ct.Recv(1)
	}))
	ct.Close()

	// obs and metrics: the cost of one observation.
	reg := obs.New()
	win := reg.Window("probe_seconds", "probe")
	ctr := reg.Counter("probe_total", "probe")
	var hist metrics.Histogram
	nObs := pick(rc, 200000, 2000)
	L.set("obs.window_observe_ns", perOp(nObs, func(i int) { win.Observe(float64(i)) }))
	L.set("obs.counter_inc_ns", perOp(nObs, func(int) { ctr.Inc() }))
	L.set("metrics.hist_observe_ns", perOp(nObs, func(i int) { hist.Observe(time.Duration(i)) }))

	// wal: raw append bandwidth with fsync off.
	if mbps, err := probeAppend(rc); err != nil {
		rc.note("wal append probe failed: %v", err)
	} else {
		L.set("wal.append_mb_per_s", mbps)
	}

	// serve: dedup admission, and the fixed cost of one request with nothing
	// else outstanding, in process and over TCP.
	dd := serve.NewDedupWindow()
	L.set("serve.dedup_admit_ns", perOp(nObs, func(i int) { dd.Admit(1, uint64(i+1), nil) }))
	if err := probeExec1(rc, L); err != nil {
		rc.note("exec1 probe failed: %v", err)
	}
}

func probeAppend(rc *runCtx) (mbPerS float64, err error) {
	w, err := wal.Open(filepath.Join(rc.scratch, "probe-wal"), wal.Options{Sync: wal.SyncOff})
	if err != nil {
		return 0, err
	}
	defer w.Close() // a throw-away log
	rec := make([]byte, 64<<10)
	nRec := pick(rc, 512, 16)
	start := time.Now()
	for i := 0; i < nRec; i++ {
		if err := w.LogRaw(uint64(i), rec); err != nil {
			return 0, err
		}
	}
	return float64(nRec*len(rec)) / (1 << 20) / time.Since(start).Seconds(), nil
}

// probeExec1 measures one outstanding transaction at a time through a
// no-wait former: the per-request cost of the serving path, and what TCP
// framing adds to it.
func probeExec1(rc *runCtx, L *metricSet) error {
	gen, err := ycsb.New(ycsb.Config{Records: 4096, Partitions: partitions, ReadRatio: 0.5, Seed: rc.seed})
	if err != nil {
		return err
	}
	st, err := qotp.Open(gen, partitions)
	if err != nil {
		return err
	}
	eng, err := core.New(st, core.Config{Planners: planners, Executors: executors, Pipeline: true})
	if err != nil {
		return err
	}
	defer eng.Close()
	srv, err := serve.New(eng, serve.Config{MaxBatch: maxBatch, MaxDelay: -1, Block: true})
	if err != nil {
		return err
	}
	defer srv.Close()
	ctx := context.Background()
	n := pick(rc, 2000, 100)
	txns := gen.NextBatch(n)
	var execErr error
	sess := srv.Session()
	us := perOp(n, func(i int) {
		if _, err := sess.Exec(ctx, txns[i]); err != nil {
			execErr = err
		}
	}) / 1e3
	if execErr != nil {
		return execErr
	}
	L.set("serve.exec1_us_inproc", us)

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	tcp := serve.ServeTCP(lis, srv, gen.Registry())
	defer tcp.Close()
	cli, err := serve.DialTCP(tcp.Addr().String())
	if err != nil {
		return err
	}
	defer cli.Close()
	txns = gen.NextBatch(n)
	us = perOp(n, func(i int) {
		if _, err := cli.Exec(ctx, txns[i]); err != nil {
			execErr = err
		}
	}) / 1e3
	if execErr != nil {
		return execErr
	}
	L.set("serve.exec1_us_tcp", us)
	return nil
}
