package engine

import "github.com/exploratory-systems/qotp/internal/txn"

// Drive returns the one batch-driver contract every caller uses: Submit hands
// the engine a batch, and the two SpecStatus watermarks say how many submitted
// batches have drained (verdict bits readable, still revocable) and how many
// are final (verdicts immutable). A speculating engine is that contract and
// is returned as is; the other two kinds are its degenerate cases:
//
//   - a pipelined engine has drained == final: batch k is final once Submit
//     k+1 returned or Drain/TryDrain reported done;
//   - a synchronous engine is a pipelined one that is never busy: Submit is
//     ExecBatch, so final == submitted whenever the driver looks.
//
// The adapter counts from zero; a speculating engine's watermarks are its own
// lifetime counters, so a driver reads them once at hand-over as its base.
// Only this function inspects an engine's capabilities. Like the engines, the
// result is single-driver-goroutine-only.
func Drive(eng Engine) Speculator {
	if s, ok := eng.(Speculator); ok && s.Speculating() {
		return s
	}
	if p, ok := eng.(Pipeliner); ok && p.Pipelined() {
		return &pipeDriver{p: p}
	}
	return &pipeDriver{p: syncPipe{eng}}
}

// syncPipe is a plain Engine seen as a Pipeliner with nothing ever in flight.
type syncPipe struct{ eng Engine }

func (s syncPipe) Pipelined() bool              { return false }
func (s syncPipe) Submit(txns []*txn.Txn) error { return s.eng.ExecBatch(txns) }
func (s syncPipe) Drain() error                 { return nil }
func (s syncPipe) TryDrain() (bool, error)      { return true, nil }

// pipeDriver presents a Pipeliner as a Speculator whose batches are final the
// moment they drain.
type pipeDriver struct {
	p       Pipeliner
	submits uint64
	done    uint64 // batches known committed: the drained == final watermark
	// err is the first engine failure. It is kept because WaitDrained and
	// SpecStatus observe a batch's completion but cannot return its error:
	// every later call reports it. Engine errors are terminal, so it is never
	// cleared.
	err error
}

func (d *pipeDriver) Pipelined() bool   { return d.p.Pipelined() }
func (d *pipeDriver) Speculating() bool { return false }

// settle folds one engine call's result into the watermark: done means no
// batch is left in flight.
func (d *pipeDriver) settle(done bool, err error) (bool, error) {
	if err != nil {
		d.err = err
		return true, err
	}
	if done {
		d.done = d.submits
	}
	return done, nil
}

func (d *pipeDriver) Submit(txns []*txn.Txn) error {
	if d.err != nil {
		return d.err
	}
	// Submit returns only once its predecessor has committed.
	if _, err := d.settle(true, d.p.Submit(txns)); err != nil {
		return err
	}
	d.submits++
	return nil
}

func (d *pipeDriver) TryDrain() (bool, error) {
	if d.err != nil {
		return true, d.err
	}
	return d.settle(d.p.TryDrain())
}

func (d *pipeDriver) Drain() error {
	if d.err != nil {
		return d.err
	}
	_, err := d.settle(true, d.p.Drain())
	return err
}

func (d *pipeDriver) Finalize() error { return d.Drain() }
func (d *pipeDriver) WaitDrained()    { _ = d.Drain() } // a failure stays in d.err

// SpecStatus polls the engine first, so the watermarks track the batch's real
// progress the way a speculating engine's atomics do. A failed batch never
// drains: its watermark stays put and the error surfaces on the next call
// that can return one.
func (d *pipeDriver) SpecStatus() (drained, final uint64) {
	_, _ = d.TryDrain()
	return d.done, d.done
}
