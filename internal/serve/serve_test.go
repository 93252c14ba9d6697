package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/exploratory-systems/qotp/internal/metrics"
	"github.com/exploratory-systems/qotp/internal/obs"
	"github.com/exploratory-systems/qotp/internal/txn"
)

// fakeKind selects which of the three driver shapes a fakeEngine presents to
// engine.Drive — like core.Engine, the fake carries every driver method
// structurally and its configuration says which are live.
type fakeKind int

const (
	fakeSync fakeKind = iota // ExecBatch only
	fakePipe                 // Submit launches the batch in the background
	fakeSpec                 // Submit drains at once; the batch stays pending until finalized
)

var fakeKinds = []struct {
	name string
	kind fakeKind
}{{"sync", fakeSync}, {"pipelined", fakePipe}, {"speculative", fakeSpec}}

// fakeEngine is a controllable engine: every batch passes through finish —
// the point its verdicts become final — where it can stall (gate), fail
// (execErr) and abort every nth transaction, and where its size is recorded
// (the group-commit shapes under test). Where finish runs is the kind:
// inside ExecBatch, on a background goroutine launched by Submit, or — for
// the speculative kind, whose Submit drains at once with all-committed
// provisional verdicts — at finalization (the next Submit, or Finalize).
type fakeEngine struct {
	kind     fakeKind
	mu       sync.Mutex
	sizes    []int
	entered  chan struct{} // receives one token per batch entering finish, if non-nil
	gate     chan struct{} // finish blocks until closed/fed, if non-nil
	exited   chan struct{} // fakePipe: one token per batch whose result is drainable, if non-nil
	execErr  error
	abortNth int // mark every nth transaction (1-based within batch) aborted
	stats    metrics.Stats

	inflight chan error // fakePipe: the background batch (driver goroutine only)

	// fakeSpec watermarks; non-zero initial values model an engine that ran
	// batches before the server existed.
	drained, final uint64
	pending        []*txn.Txn
}

func (f *fakeEngine) Name() string          { return "fake" }
func (f *fakeEngine) Stats() *metrics.Stats { return &f.stats }
func (f *fakeEngine) Close()                {}
func (f *fakeEngine) Pipelined() bool       { return f.kind != fakeSync }
func (f *fakeEngine) Speculating() bool     { return f.kind == fakeSpec }

func (f *fakeEngine) finish(txns []*txn.Txn) error {
	if f.entered != nil {
		f.entered <- struct{}{}
	}
	if f.gate != nil {
		<-f.gate
	}
	if f.execErr != nil {
		return f.execErr
	}
	for i, t := range txns {
		if f.abortNth > 0 && (i+1)%f.abortNth == 0 {
			t.MarkAborted()
		}
	}
	f.mu.Lock()
	f.sizes = append(f.sizes, len(txns))
	f.mu.Unlock()
	return nil
}

func (f *fakeEngine) ExecBatch(txns []*txn.Txn) error {
	if f.kind != fakeSync {
		panic("pipelined engine must be driven via Submit")
	}
	return f.finish(txns)
}

func (f *fakeEngine) Submit(txns []*txn.Txn) error {
	if f.kind == fakeSpec {
		if err := f.Finalize(); err != nil {
			return err
		}
		f.drained++
		f.pending = txns
		return nil
	}
	if err := f.Drain(); err != nil {
		return err
	}
	ch := make(chan error, 1)
	f.inflight = ch
	go func() {
		ch <- f.finish(txns)
		if f.exited != nil {
			f.exited <- struct{}{}
		}
	}()
	return nil
}

func (f *fakeEngine) Drain() error {
	if f.inflight == nil {
		return nil
	}
	err := <-f.inflight
	f.inflight = nil
	return err
}

func (f *fakeEngine) TryDrain() (bool, error) {
	if f.inflight == nil {
		return true, nil
	}
	select {
	case err := <-f.inflight:
		f.inflight = nil
		return true, err
	default:
		return false, nil
	}
}

func (f *fakeEngine) WaitDrained()                 {}
func (f *fakeEngine) SpecStatus() (uint64, uint64) { return f.drained, f.final }

func (f *fakeEngine) Finalize() error {
	if f.pending == nil {
		return nil
	}
	if err := f.finish(f.pending); err != nil {
		return err
	}
	f.pending = nil
	f.final++
	return nil
}

func (f *fakeEngine) batchSizes() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.sizes...)
}

func mkTxn(id uint64) *txn.Txn {
	t := &txn.Txn{ID: id}
	t.Finish()
	return t
}

// TestDriverScenarios runs the former's driver-facing behaviours — forming on
// the size and time triggers, resolution at commit rather than at the next
// Submit, terminal engine failure, Close draining the window — over all three
// shapes engine.Drive can hand the server, so each is checked on every
// adapter.
func TestDriverScenarios(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(*testing.T, fakeKind)
	}{
		{"SizeTrigger", scenarioSizeTrigger},
		{"TimeTrigger", scenarioTimeTrigger},
		{"EarlyResolution", scenarioEarlyResolution},
		{"EngineFailure", scenarioEngineFailure},
		{"CloseMidFlightDrains", scenarioCloseMidFlightDrains},
	}
	for _, sc := range scenarios {
		for _, k := range fakeKinds {
			t.Run(sc.name+"/"+k.name, func(t *testing.T) { sc.run(t, k.kind) })
		}
	}
}

// holdBusy submits one warm-up transaction — the engine is idle, so it is
// dispatched alone — and returns once the engine holds that batch at its gate
// (eng.entered must be buffered). Until the gate opens the engine is busy:
// the window is non-empty or the former is blocked on the engine, so nothing
// queued behind the warm-up can close early on an idle engine, however the
// submitter is scheduled.
func holdBusy(t *testing.T, s *Server, eng *fakeEngine) {
	t.Helper()
	if _, err := s.Submit(context.Background(), mkTxn(1000)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-eng.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("warm-up batch never reached the engine")
	}
}

// submitN submits n transactions with IDs 0..n-1 and returns their futures.
func submitN(t *testing.T, s *Server, n int) []*Future {
	t.Helper()
	futs := make([]*Future, n)
	for i := range futs {
		fut, err := s.Submit(context.Background(), mkTxn(uint64(i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		futs[i] = fut
	}
	return futs
}

// wantSizes fails the test unless the engine saw exactly these batch sizes.
func wantSizes(t *testing.T, eng *fakeEngine, want ...int) {
	t.Helper()
	if got := eng.batchSizes(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("engine saw batch sizes %v, want %v", got, want)
	}
}

// scenarioSizeTrigger: behind a busy engine, with a long MaxDelay, batches
// must form on MaxBatch exactly — 8 submissions queued behind a held warm-up
// batch become two batches of 4, and outcomes report the shared batch
// sequence (group-commit evidence).
func scenarioSizeTrigger(t *testing.T, kind fakeKind) {
	eng := &fakeEngine{kind: kind, entered: make(chan struct{}, 16), gate: make(chan struct{})}
	s, err := New(eng, Config{MaxBatch: 4, MaxDelay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	holdBusy(t, s, eng)
	futs := submitN(t, s, 8)
	close(eng.gate)
	byBatch := map[uint64]int{}
	for i, fut := range futs {
		out := fut.Outcome()
		if !out.Committed || out.Err != nil {
			t.Fatalf("txn %d: outcome %+v, want committed", i, out)
		}
		if out.Latency <= 0 {
			t.Errorf("txn %d: non-positive latency %v", i, out.Latency)
		}
		byBatch[out.Batch]++
	}
	if byBatch[2] != 4 || byBatch[3] != 4 {
		t.Errorf("outcomes per batch %v, want 4 each in batches 2 and 3", byBatch)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wantSizes(t, eng, 1, 4, 4)
}

// scenarioTimeTrigger: with MaxBatch far above the offered load and the
// engine busy, the MaxDelay timer must dispatch the partial batch — while its
// predecessor still executes, and no earlier than MaxDelay after the batch's
// first transaction arrived. Only the pipelined fake is ever busy while the
// former gathers; the other two finish a batch on the former goroutine, so
// MaxDelay never binds for them (TestAdaptiveClose covers how they close).
func scenarioTimeTrigger(t *testing.T, kind fakeKind) {
	if kind != fakePipe {
		t.Skip("this fake finishes batches on the former goroutine: never busy while the former gathers")
	}
	const maxDelay = 10 * time.Millisecond
	eng := &fakeEngine{kind: kind, gate: make(chan struct{})}
	var (
		s     *Server
		futs  []*Future
		start time.Time
	)
	logged := make(chan time.Time, 1)
	lg := &seqLogger{seqOf: map[uint64]uint64{}}
	lg.hook = func(seq uint64) {
		switch seq {
		case 1:
			// The warm-up is numbered and about to be held at the gate:
			// queue the partial batch now, so the former gathers it behind a
			// busy engine.
			start = time.Now()
			for i := 0; i < 3; i++ {
				fut, err := s.Submit(context.Background(), mkTxn(uint64(i)))
				if err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				futs = append(futs, fut)
			}
		case 2:
			logged <- time.Now()
		}
	}
	s, err := New(eng, Config{MaxBatch: 1 << 20, MaxDelay: maxDelay, MaxPending: 16, WAL: lg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), mkTxn(1000)); err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-logged:
		if waited := at.Sub(start); waited < maxDelay {
			t.Errorf("partial batch dispatched %v after its first arrival, before MaxDelay %v", waited, maxDelay)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("partial batch not dispatched while the engine was busy: MaxDelay trigger did not fire")
	}
	close(eng.gate)
	for i, fut := range futs {
		if out := fut.Outcome(); !out.Committed || out.Batch != 2 {
			t.Errorf("txn %d: %+v, want committed in batch 2", i, out)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wantSizes(t, eng, 1, 3)
}

// TestAdaptiveClose: MaxDelay is a ceiling that binds only while the engine
// is busy. On an idle engine a lone submission is dispatched as soon as the
// queue is dry, not MaxDelay later; behind a held batch the former still
// accumulates — N < MaxBatch submissions queued while batch 1 executes form
// exactly one batch of N once it finishes.
func TestAdaptiveClose(t *testing.T) {
	const maxBatch, n = 64, 5
	for _, k := range fakeKinds {
		t.Run(k.name+"/idle", func(t *testing.T) {
			eng := &fakeEngine{kind: k.kind}
			s, err := New(eng, Config{MaxBatch: maxBatch, MaxDelay: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			fut, err := s.Submit(context.Background(), mkTxn(1))
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-fut.Done():
				if out := fut.Outcome(); !out.Committed || out.Batch != 1 {
					t.Fatalf("outcome %+v, want committed in batch 1", out)
				}
			case <-time.After(time.Second):
				t.Fatal("lone submission on an idle engine unresolved after 1s: the former waited out MaxDelay")
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			wantSizes(t, eng, 1)
		})
		t.Run(k.name+"/busy", func(t *testing.T) {
			eng := &fakeEngine{kind: k.kind, entered: make(chan struct{}, 16), gate: make(chan struct{})}
			s, err := New(eng, Config{MaxBatch: maxBatch, MaxDelay: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			holdBusy(t, s, eng)
			futs := submitN(t, s, n)
			close(eng.gate)
			for i, fut := range futs {
				if out := fut.Outcome(); !out.Committed || out.Batch != 2 {
					t.Errorf("txn %d: %+v, want committed in batch 2", i, out)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			wantSizes(t, eng, 1, n)
		})
	}
}

// scenarioEarlyResolution: a batch's futures must resolve when the batch
// becomes final, not when the former next hands the engine a batch. Batch 1
// is held at its final point while later submissions queue or form behind it
// (MaxDelay is an hour, so only a full batch or an idle engine closes them);
// releasing batch 1 must resolve its futures promptly, through the poll the
// former runs while the next batch is forming.
func scenarioEarlyResolution(t *testing.T, kind fakeKind) {
	eng := &fakeEngine{kind: kind, gate: make(chan struct{}, 16)}
	s, err := New(eng, Config{MaxBatch: 2, MaxDelay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fut1, err := s.Submit(ctx, mkTxn(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(ctx, mkTxn(2)); err != nil {
		t.Fatal(err) // completes batch 1 (size trigger); handed to the engine, gated
	}
	if _, err := s.Submit(ctx, mkTxn(3)); err != nil {
		t.Fatal(err) // batch 2 starts forming and will wait ~1h for a 4th txn
	}
	select {
	case <-fut1.Done():
		t.Fatal("batch 1 resolved before the engine was allowed to finish it")
	case <-time.After(20 * time.Millisecond):
	}
	eng.gate <- struct{}{} // batch 1 becomes final while batch 2 is mid-gather
	select {
	case <-fut1.Done():
		if out := fut1.Outcome(); !out.Committed || out.Batch != 1 {
			t.Fatalf("batch 1 outcome %+v, want committed in batch 1", out)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batch 1 futures not resolved at commit: early resolution (mid-gather poll) broken")
	}
	eng.gate <- struct{}{} // release batch 2 (dispatched by Close's drain)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// scenarioEngineFailure: an engine error must resolve the failing batch's
// futures with it, poison subsequent submissions, and surface from Close.
func scenarioEngineFailure(t *testing.T, kind fakeKind) {
	boom := fmt.Errorf("disk on fire")
	s, err := New(&fakeEngine{kind: kind, execErr: boom}, Config{MaxBatch: 4, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fut, err := s.Submit(context.Background(), mkTxn(1))
	if err != nil {
		t.Fatal(err)
	}
	if out := fut.Outcome(); !errors.Is(out.Err, boom) {
		t.Fatalf("outcome err = %v, want %v", out.Err, boom)
	}
	// Eventually Submit itself rejects with the terminal error.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := s.Submit(context.Background(), mkTxn(2))
		if errors.Is(err, boom) {
			break
		}
		if err != nil {
			t.Fatalf("submit after failure: %v, want %v", err, boom)
		}
		if time.Now().After(deadline) {
			t.Fatal("Submit never started rejecting after engine failure")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want %v", err, boom)
	}
}

// scenarioCloseMidFlightDrains: Close must reject new submissions immediately
// but wait for every accepted transaction — queued, executing or pending
// finalization — to resolve its Future.
func scenarioCloseMidFlightDrains(t *testing.T, kind fakeKind) {
	eng := &fakeEngine{kind: kind, entered: make(chan struct{}, 16), gate: make(chan struct{})}
	s, err := New(eng, Config{MaxBatch: 2, MaxDelay: time.Nanosecond, MaxPending: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var futs []*Future
	for i := 0; i < 7; i++ {
		fut, err := s.Submit(ctx, mkTxn(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	<-eng.entered // a batch is held at its final point, the rest queued
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	// Close must flip rejection on promptly even while draining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := s.Submit(ctx, mkTxn(99)); errors.Is(err, ErrClosed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Submit never started returning ErrClosed during Close")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a batch was still gated", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(eng.gate)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, fut := range futs {
		select {
		case <-fut.Done():
			if out := fut.Outcome(); !out.Committed {
				t.Errorf("txn %d: %+v, want committed", i, out)
			}
		default:
			t.Fatalf("txn %d unresolved after Close returned", i)
		}
	}
}

// seqLogger is a BatchLogger recording the sequence number each transaction
// was logged under; hook, if set, runs first — on the former goroutine,
// between numbering a batch and handing it to the engine.
type seqLogger struct {
	seqOf map[uint64]uint64 // txn ID -> batch seq (former goroutine; read after Close)
	hook  func(seq uint64)
}

func (l *seqLogger) LogBatch(seq uint64, txns []*txn.Txn) error {
	if l.hook != nil {
		l.hook(seq)
	}
	for _, t := range txns {
		l.seqOf[t.ID] = seq
	}
	return nil
}

// TestOutcomeBatchIsTheLoggedSeq pins Outcome.Batch to the number the batch
// was logged under, in the schedule that used to mislabel it: over a
// pipelined engine, batch k finishes after batch k+1 has been numbered but
// before the former next touches the engine. Every window entry carries its
// own seq, so the label cannot depend on the counter's value at resolution.
// A warm-up batch holds the former in its LogBatch until all six submissions
// are queued, so they form as pairs whatever the scheduling.
func TestOutcomeBatchIsTheLoggedSeq(t *testing.T) {
	eng := &fakeEngine{kind: fakePipe, gate: make(chan struct{}), exited: make(chan struct{}, 16)}
	held, queued := make(chan struct{}), make(chan struct{})
	lg := &seqLogger{seqOf: map[uint64]uint64{}}
	lg.hook = func(seq uint64) {
		if seq == 1 {
			close(held)
			<-queued
			return
		}
		eng.gate <- struct{}{} // batch seq-1 finishes now, its successor already numbered,
		<-eng.exited           // and its result is drainable before the engine is next polled
	}
	s, err := New(eng, Config{MaxBatch: 2, MaxDelay: time.Hour, WAL: lg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), mkTxn(1000)); err != nil {
		t.Fatal(err)
	}
	<-held
	futs := submitN(t, s, 6)
	close(queued)
	for _, fut := range futs[:4] {
		<-fut.Done() // batches 2 and 3 were released by their successors' LogBatch
	}
	eng.gate <- struct{}{} // batch 4 has no successor
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, fut := range futs {
		if got, want := fut.Outcome().Batch, lg.seqOf[uint64(i)]; got != want || want != uint64(i/2+2) {
			t.Errorf("txn %d: Outcome.Batch = %d, logged under seq %d (want %d)", i, got, want, i/2+2)
		}
	}
}

// TestBackpressureOverloaded: with Block=false a full queue must reject with
// ErrOverloaded while the engine is busy, and the queued work must still
// complete once the engine frees up.
func TestBackpressureOverloaded(t *testing.T) {
	eng := &fakeEngine{entered: make(chan struct{}, 16), gate: make(chan struct{})}
	s, err := New(eng, Config{MaxBatch: 1, MaxDelay: time.Nanosecond, MaxPending: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fut1, err := s.Submit(ctx, mkTxn(1))
	if err != nil {
		t.Fatal(err)
	}
	<-eng.entered // the former is now stalled inside ExecBatch
	var futs []*Future
	for i := 0; i < 2; i++ { // fill the queue
		fut, err := s.Submit(ctx, mkTxn(uint64(2+i)))
		if err != nil {
			t.Fatalf("queue fill %d: %v", i, err)
		}
		futs = append(futs, fut)
	}
	if _, err := s.Submit(ctx, mkTxn(9)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit on full queue: err=%v, want ErrOverloaded", err)
	}
	close(eng.gate)
	for i, fut := range append([]*Future{fut1}, futs...) {
		if out := fut.Outcome(); !out.Committed {
			t.Errorf("txn %d: %+v, want committed after backpressure released", i, out)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Committed.Load(); got != 3 {
		t.Errorf("committed %d, want 3", got)
	}
}

// TestBackpressureBlocking: with Block=true a full queue must block the
// submitter; context cancellation must abandon the enqueue with ctx.Err()
// and the transaction must not execute.
func TestBackpressureBlocking(t *testing.T) {
	eng := &fakeEngine{entered: make(chan struct{}, 16), gate: make(chan struct{})}
	s, err := New(eng, Config{MaxBatch: 1, MaxDelay: time.Nanosecond, MaxPending: 1, Block: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Submit(ctx, mkTxn(1)); err != nil {
		t.Fatal(err)
	}
	<-eng.entered // former stalled; queue empty again
	if _, err := s.Submit(ctx, mkTxn(2)); err != nil {
		t.Fatal(err) // fills the queue
	}
	cctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Submit(cctx, mkTxn(3))
		errc <- err
	}()
	select {
	case err := <-errc:
		t.Fatalf("blocking submit returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled blocking submit: err=%v, want context.Canceled", err)
	}
	close(eng.gate)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Only the two accepted transactions ran.
	total := 0
	for _, n := range eng.batchSizes() {
		total += n
	}
	if total != 2 {
		t.Errorf("engine executed %d transactions, want 2 (cancelled submit must not run)", total)
	}
}

// TestVerdictsAndSessions: logic aborts must come back as Aborted outcomes,
// and per-session accounting must match. The six session submissions queue
// behind a held warm-up batch, so they form one batch in which the fake
// aborts every third transaction.
func TestVerdictsAndSessions(t *testing.T) {
	eng := &fakeEngine{abortNth: 3, entered: make(chan struct{}, 16), gate: make(chan struct{})}
	s, err := New(eng, Config{MaxBatch: 6, MaxDelay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	holdBusy(t, s, eng)
	sess := s.Session()
	var futs []*Future
	for i := 0; i < 6; i++ {
		fut, err := sess.Submit(context.Background(), mkTxn(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	close(eng.gate)
	committed, aborted := 0, 0
	for _, fut := range futs {
		out := fut.Outcome()
		if out.Err != nil {
			t.Fatalf("unexpected outcome error: %v", out.Err)
		}
		if out.Committed {
			committed++
		}
		if out.Aborted() {
			aborted++
		}
	}
	if committed != 4 || aborted != 2 {
		t.Errorf("committed=%d aborted=%d, want 4/2", committed, aborted)
	}
	st := sess.Stats()
	if st.Submitted != 6 || st.Committed != 4 || st.Aborted != 2 {
		t.Errorf("session stats %+v, want 6/4/2", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wantSizes(t, eng, 1, 6)
	snap := s.Snapshot()
	if snap.Committed != 5 || snap.UserAborts != 2 {
		t.Errorf("server stats %d/%d, want 5/2 (the session's 4/2 and the warm-up)", snap.Committed, snap.UserAborts)
	}
	if snap.P999 < snap.P50 {
		t.Errorf("p999 %v < p50 %v", snap.P999, snap.P50)
	}
}

// TestFutureWaitCtx: Wait must abandon on ctx while the outcome stays
// readable later — the transaction still executes.
func TestFutureWaitCtx(t *testing.T) {
	eng := &fakeEngine{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	s, err := New(eng, Config{MaxBatch: 1, MaxDelay: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	fut, err := s.Submit(context.Background(), mkTxn(1))
	if err != nil {
		t.Fatal(err)
	}
	<-eng.entered
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := fut.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait = %v, want deadline exceeded", err)
	}
	close(eng.gate)
	if out := fut.Outcome(); !out.Committed {
		t.Fatalf("outcome after abandoned wait: %+v, want committed", out)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShedAccounting: every ErrOverloaded rejection must be visible three
// ways — Server.Sheds, the rejecting session's SessionStats.Shed, and the
// qotp_serve_sheds_total / per-session series on the obs registry — and
// Submitted+Shed must cover every Submit call.
func TestShedAccounting(t *testing.T) {
	eng := &fakeEngine{entered: make(chan struct{}, 16), gate: make(chan struct{})}
	reg := obs.New()
	s, err := New(eng, Config{MaxBatch: 1, MaxDelay: time.Nanosecond, MaxPending: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sess := s.Session()
	fut1, err := sess.Submit(ctx, mkTxn(1))
	if err != nil {
		t.Fatal(err)
	}
	<-eng.entered // the former is stalled inside ExecBatch
	var futs []*Future
	for i := 0; i < 2; i++ { // fill the queue behind the stalled batch
		fut, err := sess.Submit(ctx, mkTxn(uint64(2+i)))
		if err != nil {
			t.Fatalf("queue fill %d: %v", i, err)
		}
		futs = append(futs, fut)
	}
	const rejects = 3
	for i := 0; i < rejects; i++ {
		if _, err := sess.Submit(ctx, mkTxn(uint64(10+i))); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("submit %d on full queue: err=%v, want ErrOverloaded", i, err)
		}
	}
	if got := s.Sheds(); got != rejects {
		t.Errorf("Server.Sheds = %d, want %d", got, rejects)
	}
	st := sess.Stats()
	if st.Shed != rejects {
		t.Errorf("SessionStats.Shed = %d, want %d", st.Shed, rejects)
	}
	if st.Submitted != 3 {
		t.Errorf("SessionStats.Submitted = %d, want 3 (sheds must not count as accepted)", st.Submitted)
	}
	wantSeries(t, reg, "qotp_serve_sheds_total", rejects)
	wantSeries(t, reg, "qotp_serve_session_shed_total", rejects, obs.L("session", "1"))
	// The queue is full behind the stalled batch: depth == capacity == MaxPending.
	wantSeries(t, reg, "qotp_serve_queue_depth", 2)
	wantSeries(t, reg, "qotp_serve_queue_capacity", 2)
	close(eng.gate)
	for i, fut := range append([]*Future{fut1}, futs...) {
		if out := fut.Outcome(); !out.Committed {
			t.Errorf("accepted txn %d: %+v, want committed once the engine freed up", i, out)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close the series are final: the queue drained, one batch per
	// accepted txn (MaxBatch 1), and every accepted txn committed.
	wantSeries(t, reg, "qotp_serve_queue_depth", 0)
	wantSeries(t, reg, "qotp_serve_batches_total", 3)
	wantSeries(t, reg, "qotp_serve_forming_seconds_count", 3)
	wantSeries(t, reg, "qotp_serve_committed_total", float64(st.Submitted))
}

// wantSeries fails the test unless the registry holds the series with value
// want.
func wantSeries(t *testing.T, reg *obs.Registry, name string, want float64, labels ...obs.Label) {
	t.Helper()
	if v, ok := reg.Value(name, labels...); !ok || v != want {
		t.Errorf("%s%v = (%v, %v), want (%v, true)", name, labels, v, ok, want)
	}
}
