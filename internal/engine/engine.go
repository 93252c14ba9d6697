// Package engine defines the common interface every transaction-processing
// protocol in this repository implements, deterministic or not, so the
// benchmark harness, examples and tests can drive them interchangeably
// (the "apple-to-apple comparison" the paper performs inside ExpoDB).
package engine

import (
	"github.com/exploratory-systems/qotp/internal/metrics"
	"github.com/exploratory-systems/qotp/internal/txn"
)

// Engine executes batches of transactions. Implementations are not required
// to support concurrent ExecBatch calls; the harness issues batches
// sequentially (internal concurrency is the engine's own business).
type Engine interface {
	// Name identifies the protocol and configuration.
	Name() string
	// ExecBatch executes all transactions of the batch to completion
	// (commit or deterministic/user abort). A non-nil error denotes an
	// internal failure, not a transaction abort.
	ExecBatch(txns []*txn.Txn) error
	// Stats exposes the engine's accumulated counters and latency histogram.
	Stats() *metrics.Stats
	// Close releases engine resources (background goroutines, sockets).
	Close()
}

// Pipeliner is implemented by engines that can overlap the planning of one
// batch with the execution of the previous one (core.Engine with
// Config.Pipeline). Submit plans the batch and launches its execution
// asynchronously once the prior batch commits; Drain waits for the last
// submitted batch; TryDrain is Drain's non-blocking form (done=false while
// the batch is still executing), letting a driver resolve a committed
// batch's clients the moment it lands instead of at the next Submit. All
// are driver-goroutine-only, like ExecBatch, and execution errors from
// batch k surface on Submit k+1, Drain, or a completed TryDrain.
type Pipeliner interface {
	Submit(txns []*txn.Txn) error
	Drain() error
	TryDrain() (done bool, err error)
	// Pipelined reports whether the pipelined driver is actually enabled —
	// engines may carry the Submit/Drain methods structurally while the
	// feature is off in their configuration.
	Pipelined() bool
}

// Speculator is implemented by engines with a cross-batch speculative
// execution mode (core.Engine with Config.CrossBatch): a batch that drains
// with logic aborts defers its verdict fixpoint, the successor executes
// against its speculative state, and the two are repaired jointly — so a
// batch's verdicts are provisional between its drain and its finalization.
// SpecStatus exposes the two monotonic batch watermarks: drained (execution
// done; speculative verdicts readable off the transactions, but revocable)
// and final (verdict fixpoint committed; verdicts immutable). Finalize waits
// out a batch still executing (returning its error, as Drain would) and
// forces the fixpoint of a drained-but-unfinalized batch when there is no
// successor to piggyback it on — the serving layer calls it on an idle
// engine so retracted speculative acks resolve promptly; on return every
// submitted batch is final. All methods are driver-goroutine-only, like the
// Pipeliner's.
//
// Speculator is also the one contract batches are driven through whatever the
// engine: Drive presents pipelined and synchronous engines as its degenerate
// cases (drained == final), with Speculating() false.
type Speculator interface {
	Pipeliner
	// Speculating reports whether cross-batch speculation is actually
	// enabled (mirrors Pipelined for the structural-interface case).
	Speculating() bool
	SpecStatus() (drained, final uint64)
	Finalize() error
	// WaitDrained blocks until the in-flight batch's execution phase
	// completes (the drained watermark) — unlike Drain, it does not wait
	// out deferred fixpoint work running on the same goroutine, so a
	// driver can publish speculative acks at the earliest sound moment.
	// Errors stay with Drain/Finalize.
	WaitDrained()
}
