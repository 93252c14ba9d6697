package wal

import (
	"bytes"
	"testing"

	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/workload/ycsb"
)

// FuzzReplay drives the Replayer with hostile input. Two properties:
//
//  1. Arbitrary bytes never panic or over-allocate — every record either
//     decodes or fails with an error, and the stream always terminates.
//  2. Torn-tail exactness: any prefix of a valid record stream replays
//     exactly the records whose frames fit the prefix whole — the frame-end
//     offsets are the only valid cut points that preserve a record.
func FuzzReplay(f *testing.F) {
	gen := ycsb.MustNew(ycsbCfg(2))
	var valid streamLog
	l := &valid
	var frameEnds []int
	for e := uint64(0); e < 3; e++ {
		if err := l.LogBatch(e, gen.NextBatch(8)); err != nil {
			f.Fatal(err)
		}
		frameEnds = append(frameEnds, valid.Len())
	}
	reg := gen.Registry()

	f.Add(valid.Bytes(), uint16(0))
	f.Add(valid.Bytes()[:frameEnds[0]], uint16(7))
	f.Add([]byte{0x42, 0x51, 0x43, 0x51}, uint16(3)) // magic alone
	f.Add([]byte(nil), uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		// Property 1: arbitrary bytes terminate without panicking. The epoch
		// values are untrusted too, so don't assert anything about them.
		rp := NewReplayer(bytes.NewReader(data))
		for i := 0; i <= len(data); i++ {
			if _, _, err := rp.Next(); err != nil {
				break
			}
		}

		// Property 2: a torn tail of the valid stream replays exactly the
		// records that fit whole before the cut.
		c := int(cut) % (len(valid.Bytes()) + 1)
		want := 0
		for _, end := range frameEnds {
			if end <= c {
				want++
			}
		}
		n, err := NewReplayer(bytes.NewReader(valid.Bytes()[:c])).ReplayAll(reg,
			func(uint64, []*txn.Txn) error { return nil })
		if err != nil {
			t.Fatalf("torn prefix of a valid log errored: %v", err)
		}
		if n != want {
			t.Fatalf("cut at %d replayed %d records, want %d (frame ends %v)", c, n, want, frameEnds)
		}
	})
}
