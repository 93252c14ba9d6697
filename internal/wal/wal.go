// Package wal implements the deterministic command log. Because the engines
// are deterministic, durability only requires logging each batch's *input*
// (the ordered transactions) before commit: replaying the log through the
// engine reproduces the exact database state — no ARIES-style physical
// logging, another practical payoff of determinism the paper leans on.
//
// Record format (little endian):
//
//	magic u32 | epoch u64 | payloadLen u32 | crc32(payload) u32 | payload
//
// where payload is the txn.AppendBatch encoding of the batch.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/exploratory-systems/qotp/internal/txn"
)

const (
	magic        = 0x51435142 // "QCQB"
	recordHeader = 20         // magic + epoch + payloadLen + crc
)

// MaxRecordBytes caps a single record's payload (64 MiB). The length field is
// untrusted input during replay; anything above the cap is treated as a
// corrupt header, same as the codec allocation clamps. Far above any real
// batch — at ~100 B/txn a maximal batch is still two orders of magnitude
// smaller.
const MaxRecordBytes = 1 << 26

// ErrCorrupt reports a checksum or framing failure during replay; recovery
// treats it as the end of the usable log (a torn tail write).
var ErrCorrupt = errors.New("wal: corrupt record")

// Replayer reads batches back from a log stream.
type Replayer struct {
	r io.Reader
}

// NewReplayer creates a replayer over r.
func NewReplayer(r io.Reader) *Replayer { return &Replayer{r: r} }

// Next returns the next logged batch, io.EOF at clean end of log, or
// ErrCorrupt for a torn/damaged record.
func (rp *Replayer) Next() (epoch uint64, txns []*txn.Txn, err error) {
	var hdr [20]byte
	if _, err := io.ReadFull(rp.r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, ErrCorrupt // torn header
	}
	if binary.LittleEndian.Uint32(hdr[:]) != magic {
		return 0, nil, ErrCorrupt
	}
	epoch = binary.LittleEndian.Uint64(hdr[4:])
	n := binary.LittleEndian.Uint32(hdr[12:])
	sum := binary.LittleEndian.Uint32(hdr[16:])
	if n > MaxRecordBytes {
		return 0, nil, ErrCorrupt // hostile length field
	}
	// Fresh buffer per record (DecodeBatch may alias the payload), grown only
	// as the stream actually delivers bytes, so a hostile length never
	// allocates more than one chunk past the real data.
	payload, rerr := readPayload(rp.r, int(n), nil)
	if rerr != nil {
		return 0, nil, ErrCorrupt // torn payload
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, ErrCorrupt
	}
	txns, _, err = txn.DecodeBatch(payload)
	if err != nil {
		return 0, nil, fmt.Errorf("wal: decode epoch %d: %w", epoch, err)
	}
	return epoch, txns, nil
}

// readPayload reads exactly n payload bytes into buf (grown from its own
// capacity), in bounded chunks: the allocation tracks delivered bytes, not
// the untrusted length field.
func readPayload(r io.Reader, n int, buf []byte) ([]byte, error) {
	const chunk = 64 << 10
	for len(buf) < n {
		want := n - len(buf)
		if want > chunk {
			want = chunk
		}
		off := len(buf)
		buf = append(buf, make([]byte, want)...)
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			return nil, err
		}
	}
	return buf[:n], nil
}

// ReplayAll feeds every intact logged batch to apply, in epoch order,
// stopping cleanly at EOF or a torn tail. Returns the number of batches
// replayed.
func (rp *Replayer) ReplayAll(reg txn.Registry, apply func(epoch uint64, txns []*txn.Txn) error) (int, error) {
	n := 0
	for {
		epoch, txns, err := rp.Next()
		if err == io.EOF {
			return n, nil
		}
		if errors.Is(err, ErrCorrupt) {
			return n, nil // torn tail: recovered prefix is the durable state
		}
		if err != nil {
			return n, err
		}
		for _, t := range txns {
			if err := reg.Resolve(t); err != nil {
				return n, err
			}
		}
		if err := apply(epoch, txns); err != nil {
			return n, err
		}
		n++
	}
}
