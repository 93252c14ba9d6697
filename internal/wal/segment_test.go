package wal

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/exploratory-systems/qotp/internal/core"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/workload/ycsb"
)

// refHashes runs the uninterrupted serial reference: refHashes[i] is the
// StateHash after i batches (index 0 = freshly loaded store).
func refHashes(t *testing.T, parts, nBatches, batchSize int) []uint64 {
	t.Helper()
	gen := ycsb.MustNew(ycsbCfg(parts))
	store := storage.MustOpen(gen.StoreConfig(parts))
	if err := gen.Load(store); err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(store, core.Config{Planners: 1, Executors: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	hashes := make([]uint64, 0, nBatches+1)
	hashes = append(hashes, store.StateHash())
	for i := 0; i < nBatches; i++ {
		if err := eng.ExecBatch(gen.NextBatch(batchSize)); err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, store.StateHash())
	}
	return hashes
}

// recoverState replays a wal directory into a freshly loaded store through a
// plain engine and returns the recovery info and the recovered StateHash.
func recoverState(t *testing.T, fsys FS, dir string, parts int) (RecoveryInfo, uint64) {
	t.Helper()
	gen := ycsb.MustNew(ycsbCfg(parts))
	store := storage.MustOpen(gen.StoreConfig(parts))
	if err := gen.Load(store); err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(store, core.Config{Planners: 1, Executors: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	info, err := RecoverFrom(dir, fsys, store, gen.Registry(), func(_ uint64, txns []*txn.Txn) error {
		return eng.ExecBatch(txns)
	})
	if err != nil {
		t.Fatal(err)
	}
	return info, store.StateHash()
}

// loggedRun opens a Writer over fsys and drives nBatches through a quecc
// engine with the writer as its batch logger, returning the writer and the
// live store. The generator stream is the same one refHashes consumed.
func loggedRun(t *testing.T, fsys FS, dir string, opts Options, parts, nBatches, batchSize int) (*Writer, *storage.Store) {
	t.Helper()
	opts.FS = fsys
	w, err := Open(dir, opts)
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
	for i := 0; i < nBatches; i++ {
		if err := eng.ExecBatch(gen.NextBatch(batchSize)); err != nil {
			t.Fatal(err)
		}
	}
	return w, store
}

// TestSegmentRotationRecovers drives enough batches through tiny segments to
// force several rotations on the real filesystem, then recovers the full
// state from the multi-segment log.
func TestSegmentRotationRecovers(t *testing.T) {
	const parts, nBatches, batchSize = 4, 6, 80
	ref := refHashes(t, parts, nBatches, batchSize)
	dir := t.TempDir()
	w, _ := loggedRun(t, OSFS, dir, Options{SegmentBytes: 2048, Sync: SyncGroup, GroupEvery: 2}, parts, nBatches, batchSize)
	if w.SegmentCount() < 2 {
		t.Fatalf("expected multiple segments from 2KiB rotation, got %d", w.SegmentCount())
	}
	if w.NextEpoch() != nBatches {
		t.Fatalf("writer at epoch %d, want %d", w.NextEpoch(), nBatches)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, got := recoverState(t, nil, dir, parts)
	if info.Batches != nBatches || info.NextEpoch != nBatches {
		t.Fatalf("recovered %d batches (next %d), want %d", info.Batches, info.NextEpoch, nBatches)
	}
	if got != ref[nBatches] {
		t.Errorf("recovered state %x != reference %x", got, ref[nBatches])
	}
	// Reopening continues the epoch sequence where the log ends.
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w2.NextEpoch() != nBatches {
		t.Errorf("reopened writer at epoch %d, want %d", w2.NextEpoch(), nBatches)
	}
	w2.Close()
}

// TestSnapshotTruncatesSegments checks that Snapshot writes a restorable
// image, drops the segments behind it on disk, and that recovery = snapshot
// restore + replay of only the post-snapshot segments.
func TestSnapshotTruncatesSegments(t *testing.T) {
	const parts, batchSize, k1, k2 = 4, 80, 4, 2
	ref := refHashes(t, parts, k1+k2, batchSize)
	fs := NewFaultFS()
	dir := "/wal"
	opts := Options{SegmentBytes: 2048, Sync: SyncEachBatch, FS: fs}
	w, err := Open(dir, opts)
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
	if err := w.Snapshot(store); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.ReadDir(dir)
	segs, snaps := 0, 0
	for _, n := range names {
		switch {
		case len(n) > 4 && n[:4] == "wal-":
			segs++
		case len(n) > 5 && n[:5] == "snap-":
			snaps++
		}
	}
	if segs != 1 || snaps != 1 {
		t.Fatalf("after snapshot: %d segments, %d snapshots on disk (want 1, 1): %v", segs, snaps, names)
	}
	for i := 0; i < k2; i++ {
		if err := eng.ExecBatch(gen.NextBatch(batchSize)); err != nil {
			t.Fatal(err)
		}
	}
	fs.Crash(0)
	info, got := recoverState(t, fs, dir, parts)
	if info.SnapshotEpoch != k1 {
		t.Errorf("snapshot epoch %d, want %d", info.SnapshotEpoch, k1)
	}
	if info.Batches != k2 || info.NextEpoch != k1+k2 {
		t.Errorf("replayed %d batches (next %d), want %d (next %d)", info.Batches, info.NextEpoch, k2, k1+k2)
	}
	if got != ref[k1+k2] {
		t.Errorf("recovered state %x != reference %x", got, ref[k1+k2])
	}
}

// TestEpochMonotonicityWriter pins the Writer's epoch contract: the first
// LogBatch pins the caller's numbering, every later call must advance by
// exactly one, and a rejected gap is not a sticky failure.
func TestEpochMonotonicityWriter(t *testing.T) {
	fs := NewFaultFS()
	w, err := Open("/wal", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	gen := ycsb.MustNew(ycsbCfg(2))
	b := gen.NextBatch(5)
	if err := w.LogBatch(5, b); err != nil { // arbitrary caller base: pinned
		t.Fatal(err)
	}
	if err := w.LogBatch(6, b); err != nil {
		t.Fatal(err)
	}
	if err := w.LogBatch(8, b); err == nil {
		t.Fatal("epoch gap 6 -> 8 accepted")
	}
	if err := w.LogBatch(6, b); err == nil {
		t.Fatal("epoch replay of 6 accepted")
	}
	if err := w.LogBatch(7, b); err != nil {
		t.Fatalf("correct epoch after rejected gap: %v", err)
	}
	if w.NextEpoch() != 3 {
		t.Errorf("wal epoch %d after 3 batches, want 3", w.NextEpoch())
	}
}

// TestEpochGapStopsRecovery hand-builds a segment whose records jump an
// epoch; replay must stop at the gap rather than apply stale bytes.
func TestEpochGapStopsRecovery(t *testing.T) {
	fs := NewFaultFS()
	dir := "/wal"
	if err := fs.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := writeManifest(fs, dir, manifest{segments: []segInfo{{name: segFileName(0), start: 0}}}); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(dir + "/" + segFileName(0))
	if err != nil {
		t.Fatal(err)
	}
	gen := ycsb.MustNew(ycsbCfg(2))
	var l streamLog
	for _, e := range []uint64{0, 1, 3} { // gap: 2 is missing
		if err := l.LogBatch(e, gen.NextBatch(5)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Write(l.Bytes()); err != nil {
		t.Fatal(err)
	}
	f.Sync()
	gen2 := ycsb.MustNew(ycsbCfg(2))
	n := 0
	info, err := RecoverFrom(dir, fs, nil, gen2.Registry(), func(uint64, []*txn.Txn) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if info.Batches != 2 || n != 2 || info.NextEpoch != 2 {
		t.Errorf("replayed %d batches (next %d), want 2 (next 2): gap must stop replay", info.Batches, info.NextEpoch)
	}
}

// TestDoubleRecoveryIdempotence is the satellite scenario: crash, recover,
// continue logging (with a snapshot in the middle), crash again, recover
// again — the state hash still matches the uninterrupted run at every step.
func TestDoubleRecoveryIdempotence(t *testing.T) {
	const parts, batchSize, M = 4, 80, 6
	const k1, k2 = 2, 2 // batches before first crash, between crashes
	ref := refHashes(t, parts, M, batchSize)
	fs := NewFaultFS()
	dir := "/wal"

	// Run 1: k1 batches, crash.
	w1, _ := loggedRun(t, fs, dir, Options{Sync: SyncEachBatch}, parts, k1, batchSize)
	_ = w1 // abandoned by the crash
	fs.Crash(0)

	// Recovery 1 + continuation: replay into a fresh store, reopen the log,
	// drive k2 more batches on the recovered state with a snapshot midway.
	gen := ycsb.MustNew(ycsbCfg(parts))
	store := storage.MustOpen(gen.StoreConfig(parts))
	if err := gen.Load(store); err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(store, core.Config{Planners: 1, Executors: 2})
	if err != nil {
		t.Fatal(err)
	}
	info, err := RecoverFrom(dir, fs, store, gen.Registry(), func(_ uint64, txns []*txn.Txn) error {
		return eng.ExecBatch(txns)
	})
	eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if info.NextEpoch != k1 {
		t.Fatalf("first recovery: %d batches, want %d", info.NextEpoch, k1)
	}
	if got := store.StateHash(); got != ref[k1] {
		t.Fatalf("first recovery state %x != reference %x", got, ref[k1])
	}
	for i := 0; i < k1; i++ {
		gen.NextBatch(batchSize) // replayed input: skip, don't re-run
	}
	w2, err := Open(dir, Options{Sync: SyncEachBatch, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := core.New(store, core.Config{Planners: 2, Executors: 2, Logger: w2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k2; i++ {
		if err := eng2.ExecBatch(gen.NextBatch(batchSize)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := w2.Snapshot(store); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng2.Close()
	fs.Crash(0)

	// Recovery 2: snapshot + surviving segments reproduce the full prefix.
	info2, got := recoverState(t, fs, dir, parts)
	if info2.SnapshotEpoch != k1+1 {
		t.Errorf("second recovery snapshot epoch %d, want %d", info2.SnapshotEpoch, k1+1)
	}
	if info2.NextEpoch != k1+k2 {
		t.Errorf("second recovery covers %d batches, want %d", info2.NextEpoch, k1+k2)
	}
	if got != ref[k1+k2] {
		t.Errorf("second recovery state %x != reference %x", got, ref[k1+k2])
	}
}

// TestRecoverEmptyDir pins the cold-start path: recovering a directory with
// no manifest is a clean no-op.
func TestRecoverEmptyDir(t *testing.T) {
	gen := ycsb.MustNew(ycsbCfg(2))
	info, err := RecoverFrom("/nope", NewFaultFS(), nil, gen.Registry(), func(uint64, []*txn.Txn) error {
		t.Fatal("apply called for empty dir")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info != (RecoveryInfo{}) {
		t.Errorf("non-zero info %+v for empty dir", info)
	}
}

// TestHostileHeaderClamped is the satellite fix: a header declaring a huge
// payload length must fail with ErrCorrupt, not allocate the claimed size.
func TestHostileHeaderClamped(t *testing.T) {
	for _, n := range []uint32{MaxRecordBytes + 1, 0xFFFFFFF0} {
		var b bytes.Buffer
		var hdr [recordHeader]byte
		binary.LittleEndian.PutUint32(hdr[:], magic)
		binary.LittleEndian.PutUint64(hdr[4:], 0)
		binary.LittleEndian.PutUint32(hdr[12:], n)
		binary.LittleEndian.PutUint32(hdr[16:], 0)
		b.Write(hdr[:])
		b.WriteString("tiny")
		if _, _, err := NewReplayer(&b).Next(); err != ErrCorrupt {
			t.Errorf("hostile length %#x: got %v, want ErrCorrupt", n, err)
		}
	}
	// Within the cap but beyond the stream: chunked reading stops at the
	// delivered bytes, ErrCorrupt, no up-front allocation of the full claim.
	var b bytes.Buffer
	var hdr [recordHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], magic)
	binary.LittleEndian.PutUint32(hdr[12:], MaxRecordBytes)
	b.Write(hdr[:])
	b.WriteString("short")
	if _, _, err := NewReplayer(&b).Next(); err != ErrCorrupt {
		t.Errorf("truncated max-length record: got %v, want ErrCorrupt", err)
	}
}
