package workload

import (
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
)

// Generator produces a deterministic stream of transaction batches for one
// macro-benchmark. Implementations are single-goroutine unless stated
// otherwise: engines consume batches from one generator loop (matching the
// paper's client/sequencer front end) and fan work out internally.
//
// Determinism contract: two generators constructed with identical
// configuration and seed produce byte-identical transaction streams, so every
// engine in a comparison executes exactly the same logical work.
type Generator interface {
	// Name identifies the workload (e.g. "ycsb", "tpcc").
	Name() string
	// StoreConfig returns the schema for the given partition count.
	StoreConfig(partitions int) storage.Config
	// Load populates the store with the initial database.
	Load(s *storage.Store) error
	// Registry returns the opcode table for this workload's fragments.
	Registry() txn.Registry
	// NextBatch generates the next n transactions in the stream.
	NextBatch(n int) []*txn.Txn
}

// GenStream pre-generates total transactions in chunk-sized NextBatch calls.
// The chunking is load-bearing, not cosmetic: generators may be
// batch-boundary dependent — TPC-C advances its delivery window once per
// NextBatch call — so a driver that must offer the *same* deterministic
// stream as a reference run (qotpd -serve verification) has to generate with
// the same chunk size the reference used, never one big NextBatch.
func GenStream(gen Generator, total, chunk int) []*txn.Txn {
	if chunk < 1 {
		chunk = total
	}
	out := make([]*txn.Txn, 0, total)
	for len(out) < total {
		n := chunk
		if rem := total - len(out); n > rem {
			n = rem
		}
		out = append(out, gen.NextBatch(n)...)
	}
	return out
}

// Opcode ranges: each workload owns a disjoint block so registries can be
// merged (the distributed nodes register every workload they may receive).
const (
	OpBaseYCSB txn.OpCode = 0x0100
	OpBaseTPCC txn.OpCode = 0x0200
	OpBaseBank txn.OpCode = 0x0300
	OpBaseTest txn.OpCode = 0x0F00
)

// MergeRegistries combines opcode tables; duplicate opcodes panic (they are
// build-time bugs, the ranges above must stay disjoint).
func MergeRegistries(regs ...txn.Registry) txn.Registry {
	out := make(txn.Registry)
	for _, r := range regs {
		for op, fn := range r {
			if _, dup := out[op]; dup {
				panic("workload: duplicate opcode across registries")
			}
			out[op] = fn
		}
	}
	return out
}
