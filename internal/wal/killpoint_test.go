package wal

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/exploratory-systems/qotp/internal/cluster"
	"github.com/exploratory-systems/qotp/internal/core"
	"github.com/exploratory-systems/qotp/internal/dist"
	"github.com/exploratory-systems/qotp/internal/engine"
	"github.com/exploratory-systems/qotp/internal/serve"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/workload/ycsb"
)

// TestKillPointConformance is the randomized crash conformance suite: crash
// the engine at a random batch boundary or mid-append (torn write), with a
// random surviving fraction of the unsynced tail, recover, and pin the
// replayed StateHash against the uninterrupted serial run — across
// quecc/quecc-pipe/quecc-spec and both fsync policies. The one universal
// invariant: whatever prefix the log preserves, the recovered state IS the
// serial reference at exactly that prefix.
func TestKillPointConformance(t *testing.T) {
	const parts, M, batchSize = 4, 6, 80
	ref := refHashes(t, parts, M, batchSize)
	engines := []struct {
		name string
		cfg  core.Config
	}{
		{"quecc", core.Config{Planners: 2, Executors: 2}},
		{"quecc-pipe", core.Config{Planners: 2, Executors: 2, Pipeline: true}},
		{"quecc-spec", core.Config{Planners: 2, Executors: 2, CrossBatch: true}},
	}
	for _, e := range engines {
		for _, sync := range []SyncPolicy{SyncEachBatch, SyncGroup} {
			t.Run(fmt.Sprintf("%s/sync=%s", e.name, sync), func(t *testing.T) {
				// Deterministic per-subtest stream of kill points.
				rng := rand.New(rand.NewSource(int64(7 + len(e.name) + int(sync))))
				for iter := 0; iter < 4; iter++ {
					k := rng.Intn(M + 1)     // clean batches before the crash
					keep := rng.Intn(40)     // surviving unsynced tail bytes
					midAppend := iter%2 == 1 // crash inside the (k+1)th append
					runKillPoint(t, e.cfg, sync, parts, batchSize, k, keep, midAppend, ref)
				}
			})
		}
	}
}

// runKillPoint drives k clean batches through one engine configuration over a
// FaultFS-backed wal, optionally tears the next append mid-write, crashes,
// recovers, and checks the recovered hash against the reference at the
// recovered prefix.
func runKillPoint(t *testing.T, cfg core.Config, sync SyncPolicy, parts, batchSize, k, keep int, midAppend bool, ref []uint64) {
	t.Helper()
	fs := NewFaultFS()
	dir := "/wal"
	// Small segments so rotation points land inside the run as well.
	w, err := Open(dir, Options{Sync: sync, SegmentBytes: 4096, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	gen := ycsb.MustNew(ycsbCfg(parts))
	store := storage.MustOpen(gen.StoreConfig(parts))
	if err := gen.Load(store); err != nil {
		t.Fatal(err)
	}
	cfg.Logger = w
	eng, err := core.New(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pipe, _ := engine.Engine(eng).(engine.Pipeliner)
	if pipe != nil && !pipe.Pipelined() {
		pipe = nil
	}
	spec, _ := engine.Engine(eng).(engine.Speculator)
	if spec != nil && !spec.Speculating() {
		spec = nil
	}
	// drive commits one batch fully (submit + drain + verdict fixpoint), so
	// "k clean batches" is exactly k batches logged and committed.
	drive := func(txns []*txn.Txn) error {
		if pipe != nil {
			if err := pipe.Submit(txns); err != nil {
				return err
			}
			if err := pipe.Drain(); err != nil {
				return err
			}
			if spec != nil {
				return spec.Finalize()
			}
			return nil
		}
		return eng.ExecBatch(txns)
	}
	for i := 0; i < k; i++ {
		if err := drive(gen.NextBatch(batchSize)); err != nil {
			t.Fatal(err)
		}
	}
	if midAppend && k < len(ref)-1 {
		// Tear the next batch's append: the write stores half its bytes and
		// fails. The engine surfaces the logger error (terminal); both the
		// error and the torn on-disk prefix are the crash.
		fs.FailWriteAfter(0)
		_ = drive(gen.NextBatch(batchSize))
	}
	fs.Crash(keep)

	info, got := recoverState(t, fs, dir, parts)
	recovered := int(info.NextEpoch)
	if recovered > k {
		t.Fatalf("recovered %d batches, only %d were cleanly committed", recovered, k)
	}
	if sync == SyncEachBatch && recovered != k {
		t.Fatalf("per-batch fsync: recovered %d batches, want all %d", recovered, k)
	}
	if got != ref[recovered] {
		t.Fatalf("recovered state %x != reference after %d batches %x (k=%d keep=%d midAppend=%v)",
			got, recovered, ref[recovered], k, keep, midAppend)
	}
}

// TestKillPointLyingSync models fsync-reported-but-lost (a lying disk cache):
// the final batches' fsyncs claim success without making data durable. The
// loss window widens to those batches, but the recovered prefix must still be
// exact.
func TestKillPointLyingSync(t *testing.T) {
	const parts, M, batchSize, lies = 4, 5, 80, 2
	ref := refHashes(t, parts, M, batchSize)
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 3; iter++ {
		fs := NewFaultFS()
		// Default segment sizing: no rotation (and no manifest rewrite) inside
		// the lie window, so only batch-append fsyncs are being lied about.
		w, err := Open("/wal", Options{Sync: SyncEachBatch, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		gen := ycsb.MustNew(ycsbCfg(parts))
		store := storage.MustOpen(gen.StoreConfig(parts))
		if err := gen.Load(store); err != nil {
			t.Fatal(err)
		}
		eng, err := core.New(store, core.Config{Planners: 2, Executors: 2, Logger: w})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < M-lies; i++ {
			if err := eng.ExecBatch(gen.NextBatch(batchSize)); err != nil {
				t.Fatal(err)
			}
		}
		fs.LieSyncs(lies)
		for i := 0; i < lies; i++ {
			if err := eng.ExecBatch(gen.NextBatch(batchSize)); err != nil {
				t.Fatal(err)
			}
		}
		eng.Close()
		fs.Crash(rng.Intn(60))

		info, got := recoverState(t, fs, "/wal", parts)
		recovered := int(info.NextEpoch)
		if recovered < M-lies || recovered > M {
			t.Fatalf("recovered %d batches, want within [%d, %d]", recovered, M-lies, M)
		}
		if got != ref[recovered] {
			t.Fatalf("recovered state %x != reference after %d batches %x", got, recovered, ref[recovered])
		}
	}
}

// TestKillPointPostSnapshotPreTruncate crashes between the snapshot's
// manifest update and the removal of the segments it obsoletes: the removals
// fail (injected), the orphans stay on disk, and recovery must ignore them —
// snapshot restore plus post-snapshot replay, nothing double-applied.
func TestKillPointPostSnapshotPreTruncate(t *testing.T) {
	const parts, batchSize, k1, k2 = 4, 80, 3, 2
	ref := refHashes(t, parts, k1+k2, batchSize)
	fs := NewFaultFS()
	dir := "/wal"
	w, err := Open(dir, Options{Sync: SyncEachBatch, SegmentBytes: 2048, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	gen := ycsb.MustNew(ycsbCfg(parts))
	store := storage.MustOpen(gen.StoreConfig(parts))
	if err := gen.Load(store); err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(store, core.Config{Planners: 2, Executors: 2, Logger: w})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < k1; i++ {
		if err := eng.ExecBatch(gen.NextBatch(batchSize)); err != nil {
			t.Fatal(err)
		}
	}
	// Every Remove the snapshot's truncation issues fails: the manifest
	// already points at the snapshot, the dead segment files stay behind.
	fs.FailRemoves(100)
	if err := w.Snapshot(store); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.ReadDir(dir)
	orphans := 0
	for _, n := range names {
		if len(n) > 4 && n[:4] == "wal-" {
			orphans++
		}
	}
	if orphans < 2 {
		t.Fatalf("expected leftover pre-snapshot segments, dir has %v", names)
	}
	for i := 0; i < k2; i++ {
		if err := eng.ExecBatch(gen.NextBatch(batchSize)); err != nil {
			t.Fatal(err)
		}
	}
	fs.Crash(0)
	info, got := recoverState(t, fs, dir, parts)
	if info.SnapshotEpoch != k1 || info.NextEpoch != k1+k2 {
		t.Fatalf("recovered snapshot=%d next=%d, want snapshot=%d next=%d",
			info.SnapshotEpoch, info.NextEpoch, k1, k1+k2)
	}
	if got != ref[k1+k2] {
		t.Fatalf("recovered state %x != reference %x", got, ref[k1+k2])
	}
	// The next Open cleans the orphans the crashed truncation left behind.
	w2, err := Open(dir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	names, _ = fs.ReadDir(dir)
	for _, n := range names {
		if len(n) > 4 && n[:4] == "wal-" && n != segFileName(w2.tailStart) {
			live := false
			for _, s := range w2.man.segments {
				if s.name == n {
					live = true
				}
			}
			if !live {
				t.Errorf("orphan %s survived Open's cleanup", n)
			}
		}
	}
}

// TestServeWALRecovery wires the Writer into the serving path
// (serve.Config.WAL — the qotp.ClientOptions exposure): formed batches are
// logged before dispatch, and after a crash the log alone reproduces the
// server's final state. Batch-boundary placement is timing-dependent, but the
// logged batches preserve the total submission order, which for a
// deterministic engine is all that matters.
func TestServeWALRecovery(t *testing.T) {
	const parts, nTxns = 4, 400
	fs := NewFaultFS()
	w, err := Open("/wal", Options{Sync: SyncEachBatch, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	gen := ycsb.MustNew(ycsbCfg(parts))
	store := storage.MustOpen(gen.StoreConfig(parts))
	if err := gen.Load(store); err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(store, core.Config{Planners: 2, Executors: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := serve.New(eng, serve.Config{MaxBatch: 64, MaxDelay: -1, Block: true, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	stream := gen.NextBatch(nTxns)
	sess := srv.Session()
	ctx := context.Background()
	for _, tx := range stream {
		if _, err := sess.Exec(ctx, tx); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	want := store.StateHash()
	fs.Crash(0)

	_, got := recoverState(t, fs, "/wal", parts)
	if got != want {
		t.Errorf("recovered state %x != crashed server's final state %x", got, want)
	}
}

// TestQueCCDRejoinRecovers is the 2-node distributed rejoin: the leader logs
// every batch at ship time, the cluster is killed mid-stream, and a fresh
// cluster replays the log (ClusterStateHash == serial reference), reopens the
// log, and finishes the stream — the killed cluster restarts mid-stream. It
// runs over the in-process transport and over real loopback TCP sockets.
func TestQueCCDRejoinRecovers(t *testing.T) {
	const parts, M, k, batchSize = 4, 5, 3, 100
	ref := refHashes(t, parts, M, batchSize)
	var tables []storage.TableID
	for _, ts := range ycsb.MustNew(ycsbCfg(parts)).StoreConfig(parts).Tables {
		tables = append(tables, ts.ID)
	}
	transports := []struct {
		name  string
		start func() (cluster.Transport, error)
	}{
		{"chan", func() (cluster.Transport, error) { return cluster.NewChanTransport(2, 0), nil }},
		{"tcp", func() (cluster.Transport, error) { return cluster.StartLoopbackTCP(2) }},
	}
	for _, tc := range transports {
		t.Run(tc.name, func(t *testing.T) {
			runQueCCDRejoin(t, tc.start, parts, M, k, batchSize, tables, ref)
		})
	}
}

func runQueCCDRejoin(t *testing.T, start func() (cluster.Transport, error), parts, M, k, batchSize int, tables []storage.TableID, ref []uint64) {
	fs := NewFaultFS()
	dir := "/wal"
	w, err := Open(dir, Options{Sync: SyncEachBatch, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := start()
	if err != nil {
		t.Fatal(err)
	}
	gen := ycsb.MustNew(ycsbCfg(parts))
	eng, err := dist.NewQueCCD(tr, gen, parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetLogger(w)
	for i := 0; i < k; i++ {
		if err := eng.ExecBatch(gen.NextBatch(batchSize)); err != nil {
			t.Fatal(err)
		}
	}
	fs.Crash(0) // kill the cluster: the wal image is all that survives
	eng.Close()
	tr.Close()

	// Rejoin: a fresh 2-node cluster replays the log through itself.
	tr2, err := start()
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	gen2 := ycsb.MustNew(ycsbCfg(parts))
	eng2, err := dist.NewQueCCD(tr2, gen2, parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	info, err := RecoverFrom(dir, fs, nil, gen2.Registry(), func(_ uint64, txns []*txn.Txn) error {
		return eng2.ExecBatch(txns)
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(info.NextEpoch) != k {
		t.Fatalf("recovered %d batches, want %d", info.NextEpoch, k)
	}
	if got := dist.ClusterStateHash(eng2.Stores(), tables); got != ref[k] {
		t.Fatalf("rejoined cluster state %x != reference after %d batches %x", got, k, ref[k])
	}

	// Continue mid-stream: skip the replayed input, log the rest, and land on
	// the uninterrupted run's final state.
	for i := 0; i < k; i++ {
		gen2.NextBatch(batchSize)
	}
	w2, err := Open(dir, Options{Sync: SyncEachBatch, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	eng2.SetLogger(w2)
	for i := k; i < M; i++ {
		if err := eng2.ExecBatch(gen2.NextBatch(batchSize)); err != nil {
			t.Fatal(err)
		}
	}
	if got := dist.ClusterStateHash(eng2.Stores(), tables); got != ref[M] {
		t.Errorf("final cluster state %x != reference %x", got, ref[M])
	}
	if w2.NextEpoch() != uint64(M) {
		t.Errorf("log covers %d batches, want %d", w2.NextEpoch(), M)
	}
}
