package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"testing"

	"github.com/exploratory-systems/qotp/internal/core"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/workload/ycsb"
)

func ycsbCfg(parts int) ycsb.Config {
	return ycsb.Config{
		Records: 512, OpsPerTxn: 6, ReadRatio: 0.2, RMWRatio: 0.5,
		Theta: 0.9, AbortRatio: 0.05, Partitions: parts, Seed: 616,
	}
}

// streamLog is a BatchLogger that appends bare record frames to a buffer at
// whatever epochs it is handed — the single-stream input the Replayer tests
// and the fuzz corpus cut, corrupt and (for the gap test) mis-number, which
// the epoch-checking Writer would refuse to produce.
type streamLog struct{ bytes.Buffer }

func (l *streamLog) LogBatch(epoch uint64, txns []*txn.Txn) error {
	payload := txn.AppendBatch(nil, txns)
	var hdr [recordHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], magic)
	binary.LittleEndian.PutUint64(hdr[4:], epoch)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[16:], crc32.ChecksumIEEE(payload))
	l.Write(hdr[:])
	l.Write(payload)
	return nil
}

// TestCrashRecoveryReproducesState runs batches with command logging, then
// replays the log into a fresh store and compares state hashes — the
// deterministic-recovery guarantee that lets the paradigm log inputs only.
func TestCrashRecoveryReproducesState(t *testing.T) {
	const parts, nBatches, batchSize = 4, 5, 100
	var logBuf streamLog

	gen := ycsb.MustNew(ycsbCfg(parts))
	store := storage.MustOpen(gen.StoreConfig(parts))
	if err := gen.Load(store); err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(store, core.Config{Planners: 2, Executors: 2, Logger: &logBuf})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < nBatches; b++ {
		if err := eng.ExecBatch(gen.NextBatch(batchSize)); err != nil {
			t.Fatal(err)
		}
	}
	want := store.StateHash()

	// "Crash" and recover: fresh store, replay the command log through a
	// fresh engine (thread counts may differ — determinism covers that).
	gen2 := ycsb.MustNew(ycsbCfg(parts))
	store2 := storage.MustOpen(gen2.StoreConfig(parts))
	if err := gen2.Load(store2); err != nil {
		t.Fatal(err)
	}
	eng2, err := core.New(store2, core.Config{Planners: 1, Executors: 3})
	if err != nil {
		t.Fatal(err)
	}
	rp := NewReplayer(bytes.NewReader(logBuf.Bytes()))
	n, err := rp.ReplayAll(gen2.Registry(), func(_ uint64, txns []*txn.Txn) error {
		return eng2.ExecBatch(txns)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != nBatches {
		t.Errorf("replayed %d batches, want %d", n, nBatches)
	}
	if got := store2.StateHash(); got != want {
		t.Errorf("recovered state %x != original %x", got, want)
	}
}

// TestTornTailStopsCleanly corrupts the final record and checks replay
// recovers the intact prefix.
func TestTornTailStopsCleanly(t *testing.T) {
	var logBuf streamLog
	l := &logBuf
	gen := ycsb.MustNew(ycsbCfg(2))
	for e := uint64(0); e < 3; e++ {
		if err := l.LogBatch(e, gen.NextBatch(10)); err != nil {
			t.Fatal(err)
		}
	}
	data := logBuf.Bytes()
	torn := data[:len(data)-7] // cut mid-payload of the last record
	rp := NewReplayer(bytes.NewReader(torn))
	n, err := rp.ReplayAll(gen.Registry(), func(uint64, []*txn.Txn) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("replayed %d batches from torn log, want 2", n)
	}
}

// TestCorruptPayloadDetected flips a payload byte and checks the CRC catches
// it.
func TestCorruptPayloadDetected(t *testing.T) {
	var logBuf streamLog
	l := &logBuf
	gen := ycsb.MustNew(ycsbCfg(2))
	if err := l.LogBatch(0, gen.NextBatch(5)); err != nil {
		t.Fatal(err)
	}
	data := logBuf.Bytes()
	data[len(data)-1] ^= 0xFF
	rp := NewReplayer(bytes.NewReader(data))
	if _, _, err := rp.Next(); err != ErrCorrupt {
		t.Errorf("got %v, want ErrCorrupt", err)
	}
}

// TestEmptyLog replays nothing.
func TestEmptyLog(t *testing.T) {
	rp := NewReplayer(bytes.NewReader(nil))
	if _, _, err := rp.Next(); err != io.EOF {
		t.Errorf("got %v, want EOF", err)
	}
}
