package engine

import (
	"fmt"

	"github.com/exploratory-systems/qotp/internal/calvin"
	"github.com/exploratory-systems/qotp/internal/core"
	"github.com/exploratory-systems/qotp/internal/hstore"
	"github.com/exploratory-systems/qotp/internal/mvto"
	"github.com/exploratory-systems/qotp/internal/silo"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/tictoc"
	"github.com/exploratory-systems/qotp/internal/twopl"
)

// Protocol is one row of the centralized-engine name table: the single place
// a protocol name is spelled. The public façade, the experiment harness and
// the conformance suite all construct engines through it.
type Protocol struct {
	Name string
	// Deterministic reports that the committed history equals the batch's
	// serial order, so final states are hash-comparable across engines.
	Deterministic bool
	// queue is the core.Config a queue engine is built from (thread counts
	// and logger filled in by New); nil for the baselines.
	queue *core.Config
	// baseline builds a non-queue engine over `threads` workers.
	baseline func(s *storage.Store, threads int) (Engine, error)
}

// New builds the protocol's engine over a loaded store. planners and lg (the
// engine-level batch logger, may be nil) apply to the queue engines only; a
// logger handed to a baseline is an error, not silently dropped.
func (p Protocol) New(s *storage.Store, planners, threads int, lg core.BatchLogger) (Engine, error) {
	if p.queue == nil {
		if lg != nil {
			return nil, fmt.Errorf("engine: %q has no batch-logger hook (queue engines only)", p.Name)
		}
		return p.baseline(s, threads)
	}
	cfg := *p.queue
	cfg.Planners, cfg.Executors, cfg.Logger = planners, threads, lg
	return core.New(s, cfg)
}

// workers adapts a baseline's concrete constructor to the table's signature.
func workers[E Engine](build func(*storage.Store, int) (E, error)) func(*storage.Store, int) (Engine, error) {
	return func(s *storage.Store, threads int) (Engine, error) { return build(s, threads) }
}

func twoPL(v twopl.Variant) func(*storage.Store, int) (Engine, error) {
	return workers(func(s *storage.Store, threads int) (*twopl.Engine, error) { return twopl.New(s, v, threads) })
}

// Protocols lists every centralized protocol, queue engines first.
var Protocols = []Protocol{
	{Name: "quecc", Deterministic: true, queue: &core.Config{}},
	{Name: "quecc-cons", Deterministic: true, queue: &core.Config{Mechanism: core.Conservative}},
	{Name: "quecc-rc", Deterministic: true, queue: &core.Config{Isolation: core.ReadCommitted}},
	{Name: "quecc-pipe", Deterministic: true, queue: &core.Config{Pipeline: true}},
	{Name: "quecc-spec", Deterministic: true, queue: &core.Config{CrossBatch: true}},
	{Name: "hstore", Deterministic: true, baseline: workers(hstore.New)},
	{Name: "calvin", Deterministic: true, baseline: workers(calvin.New)},
	{Name: "2pl-nowait", baseline: twoPL(twopl.NoWait)},
	{Name: "2pl-waitdie", baseline: twoPL(twopl.WaitDie)},
	{Name: "silo", baseline: workers(silo.New)},
	{Name: "tictoc", baseline: workers(tictoc.New)},
	{Name: "mvto", baseline: workers(mvto.New)},
}

// Lookup finds a protocol by name.
func Lookup(name string) (Protocol, error) {
	for _, p := range Protocols {
		if p.Name == name {
			return p, nil
		}
	}
	return Protocol{}, fmt.Errorf("engine: unknown protocol %q", name)
}
