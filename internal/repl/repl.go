// Package repl replicates the leader's write-ahead log — the serializable
// batch inputs the deterministic engines commit from — to standby followers,
// with acknowledged, epoch-ordered append and online rejoin.
//
// Because every engine in this system is deterministic over its batch
// inputs, shipping the WAL stream IS full state replication (Gray's "queues
// are databases" argument): a standby holding the log prefix can reproduce
// the leader's exact state hash by replay. The leader appends each batch to
// its local segmented log, streams the identical framed record to every live
// follower (MsgReplAppend), and — per the configured ack mode — commits
// immediately (AckAsync) or after k followers acknowledge local durability
// (AckWaitK).
//
// Online rejoin: a crashed or newly added follower replays its local
// segments, opens its log (repairing any torn tail), and announces its first
// missing epoch (MsgReplHello). The leader streams the gap from its own
// segments (wal.ReadRange) — preceded by a snapshot install (MsgReplSnap +
// wal.InstallSnapshot) when the gap was truncated behind a leader snapshot —
// and flips the follower back into the live stream at a batch boundary
// (MsgReplResume), all without stopping the cluster.
//
// Failure handling is graceful degradation, never a stall: a follower that
// misses the ack deadline or lags past MaxLag is shed from the live stream
// (its tail stays buffered in the leader's log — the log IS the buffer) and
// re-enters through the same catch-up path; a follower the transport
// declares down (cluster.ErrPeerDown) is dropped until it is heard from
// again. The surviving ack quorum keeps committing throughout.
package repl

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"github.com/exploratory-systems/qotp/internal/cluster"
	"github.com/exploratory-systems/qotp/internal/obs"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/wal"
)

// AckMode selects when Leader.LogBatch returns.
type AckMode int

const (
	// AckAsync returns once the batch is durable on the leader's own log;
	// follower appends are fire-and-forget (bounded only by MaxLag shedding).
	AckAsync AckMode = iota
	// AckWaitK additionally waits until Options.WaitFor followers have
	// acknowledged the batch as locally durable (or AckTimeout passes, which
	// sheds the laggards and commits with the surviving quorum).
	AckWaitK
)

// Options tunes the Leader.
type Options struct {
	// Ack and WaitFor select the ack mode (see AckMode).
	Ack     AckMode
	WaitFor int
	// AckTimeout bounds the AckWaitK wait per batch; expiry sheds the
	// non-acking followers to catch-up and commits with the survivors
	// (default 3s).
	AckTimeout time.Duration
	// MaxLag sheds a live follower whose unacked tail exceeds this many
	// batches: it stops receiving live appends (its tail stays buffered in
	// the leader's log) and re-enters via catch-up (default 1024).
	MaxLag int
	// ChunkRecords is the catch-up streaming chunk: how many tail records
	// are sent per leader-lock acquisition, bounding how long a rejoining
	// follower can stall live appends (default 64).
	ChunkRecords int
	// WAL configures the leader's local segmented log (sync policy, segment
	// sizes, FS seam).
	WAL wal.Options
	// Metrics, when non-nil, receives the leader's observability instruments:
	// role/term/demotion gauges, per-follower lag and state, the cumulative
	// Stats counters, and the ack-wait latency window. It also registers the
	// readiness probe that marks a demoted ex-leader not-ready.
	Metrics *obs.Registry
}

func (o *Options) normalize() {
	if o.AckTimeout <= 0 {
		o.AckTimeout = 3 * time.Second
	}
	if o.MaxLag <= 0 {
		o.MaxLag = 1024
	}
	if o.ChunkRecords <= 0 {
		o.ChunkRecords = 64
	}
}

// Follower lifecycle states, as the leader sees them.
const (
	// StateJoining: never heard from; not in the live stream yet.
	StateJoining = "joining"
	// StateLive: receiving every append as it is logged.
	StateLive = "live"
	// StateCatchup: shed from (or not yet in) the live stream; a catch-up
	// goroutine is streaming its gap from the leader's segments.
	StateCatchup = "catchup"
	// StateDown: declared dead (transport verdict, send failure); ignored
	// until heard from again, which re-enters catch-up.
	StateDown = "down"
)

type followerState struct {
	state string
	// acked is the follower's cumulative watermark: the next epoch it needs
	// (everything below is durable on its disk).
	acked uint64
	// helloFrom/hasHello hold a rejoin request that arrived while a
	// catch-up goroutine was already running (a crash *during* catch-up and
	// second rejoin); the goroutine restarts from it.
	helloFrom uint64
	hasHello  bool
}

// Stats are the Leader's cumulative counters (racy snapshot via Stats()).
type Stats struct {
	// Appends is the number of batches logged and offered to the stream.
	Appends uint64
	// AckWaits counts batches that waited for a follower quorum.
	AckWaits uint64
	// Degraded counts batches whose ack wait expired: committed with the
	// surviving quorum after shedding the laggards.
	Degraded uint64
	// Shed counts live->catchup demotions (ack timeout or MaxLag).
	Shed uint64
	// Rejoins counts completed catch-ups (follower flipped back to live).
	Rejoins uint64
	// CatchupRecords counts tail records streamed to rejoining followers.
	CatchupRecords uint64
	// SnapshotsSent counts snapshot installs shipped to followers whose gap
	// was truncated.
	SnapshotsSent uint64
	// PeerDown counts failure-detector / send-failure verdicts acted on.
	PeerDown uint64
	// Fenced counts stale-term rejections observed (a peer told this leader a
	// newer term exists; the first one demotes it).
	Fenced uint64
}

// ErrDemoted is returned by Leader.LogBatch once a newer-term leader has been
// elected: this node's reign is over, nothing it appends can commit, and the
// serving layer should stop cleanly (clients retry against the new leader)
// rather than treat it as an engine failure. Match with errors.Is; the
// serving layer detects it structurally (the Demoted marker method) to avoid
// importing this package.
var ErrDemoted error = demotedError{}

type demotedError struct{}

func (demotedError) Error() string { return "repl: leader demoted (newer term elected)" }

// Demoted marks the error as a leadership handover rather than a failure.
func (demotedError) Demoted() bool { return true }

type waiter struct {
	epoch uint64 // satisfied when >= need followers have acked > epoch
	need  int
	ch    chan struct{}
	err   error // set before ch closes when the wait must fail (demotion)
}

// Leader replicates a leader node's WAL to standby followers. It implements
// the BatchLogger hook shared by every layer (core.Config.Logger,
// serve.Config.WAL, dist.QueCCD.SetLogger), so replication slots in exactly
// where the single-disk Writer did. LogBatch may be called from one
// goroutine (like the Writer); the leader's receive loop and catch-up
// streams run internally.
type Leader struct {
	tr        cluster.Transport
	id        int
	followers []int
	opts      Options
	dir       string
	fs        wal.FS

	mu      sync.Mutex
	w       *wal.Writer
	fls     map[int]*followerState
	waiters []*waiter
	stats   Stats
	offset  uint64 // caller epoch + offset == wal epoch
	offSet  bool
	closed  bool
	// term is the fencing token stamped on every outgoing repl message; it is
	// the WAL manifest's persisted term at open/promotion time. demoted flips
	// once a peer proves a newer term exists (demotedTo records it): every
	// subsequent LogBatch fails with ErrDemoted.
	term       uint64
	startEpoch uint64 // NextEpoch at open: tie-break vs same-term announcements
	demoted    bool
	demotedTo  uint64

	scratch []byte
	quit    chan struct{}

	wAckWait *obs.Window // ack-wait latency per quorum-waited batch (nil-safe)
}

// OpenLeader opens (or reopens) the leader's log in dir and starts
// replicating it to the given follower node ids over tr. The leader owns the
// Writer (Close closes it); it does not own the transport. Followers start
// in StateJoining and enter the stream through their MsgReplHello — so a
// leader restarted on an existing log and its followers meet through the
// same rejoin path as a crashed follower.
func OpenLeader(dir string, tr cluster.Transport, id int, followers []int, opts Options) (*Leader, error) {
	opts.normalize()
	w, err := wal.Open(dir, opts.WAL)
	if err != nil {
		return nil, err
	}
	fs := opts.WAL.FS
	if fs == nil {
		fs = wal.OSFS
	}
	l := &Leader{
		tr: tr, id: id, followers: append([]int(nil), followers...),
		opts: opts, dir: dir, fs: fs,
		w: w, fls: make(map[int]*followerState), quit: make(chan struct{}),
		term: w.Term(), startEpoch: w.NextEpoch(),
	}
	for _, f := range followers {
		if f == id {
			return nil, fmt.Errorf("repl: leader %d cannot be its own follower", id)
		}
		l.fls[f] = &followerState{state: StateJoining}
	}
	if opts.Metrics != nil {
		l.registerMetrics()
	}
	go l.recvLoop()
	return l, nil
}

// registerMetrics wires the leader's instruments into opts.Metrics. All
// gauges pull through the public accessors (mutex-protected snapshots), so
// scrapes never race the replication paths.
func (l *Leader) registerMetrics() {
	r := l.opts.Metrics
	nl := obs.L("node", strconv.Itoa(l.id))
	r.Gauge("qotp_repl_role", "replication role: 1 leader, 0 follower", func() float64 { return 1 }, nl)
	r.Gauge("qotp_repl_term", "current fencing term", func() float64 { return float64(l.Term()) }, nl)
	r.Gauge("qotp_repl_demoted", "1 once a newer-term leader fenced this node off", func() float64 {
		if _, d := l.Demoted(); d {
			return 1
		}
		return 0
	}, nl)
	r.Gauge("qotp_repl_next_epoch", "next wal epoch the leader will append", func() float64 { return float64(l.NextEpoch()) }, nl)
	for _, f := range l.followers {
		fl := obs.L("follower", strconv.Itoa(f))
		r.Gauge("qotp_repl_follower_lag", "unacked batches: leader next epoch - follower acked watermark", func() float64 {
			_, acked := l.FollowerState(f)
			if next := l.NextEpoch(); next > acked {
				return float64(next - acked)
			}
			return 0
		}, nl, fl)
		r.Gauge("qotp_repl_follower_state", "follower lifecycle: 0 joining, 1 live, 2 catchup, 3 down", func() float64 {
			state, _ := l.FollowerState(f)
			switch state {
			case StateLive:
				return 1
			case StateCatchup:
				return 2
			case StateDown:
				return 3
			}
			return 0
		}, nl, fl)
	}
	stat := func(name, help string, get func(Stats) uint64) {
		r.Gauge(name, help, func() float64 { return float64(get(l.Stats())) }, nl)
	}
	stat("qotp_repl_appends_total", "batches logged and offered to the stream", func(s Stats) uint64 { return s.Appends })
	stat("qotp_repl_ack_waits_total", "batches that waited for a follower quorum", func(s Stats) uint64 { return s.AckWaits })
	stat("qotp_repl_degraded_total", "ack waits that expired and committed with the survivors", func(s Stats) uint64 { return s.Degraded })
	stat("qotp_repl_shed_followers_total", "live-to-catchup demotions (ack timeout or MaxLag)", func(s Stats) uint64 { return s.Shed })
	stat("qotp_repl_rejoins_total", "completed catch-ups (follower back to live)", func(s Stats) uint64 { return s.Rejoins })
	stat("qotp_repl_catchup_records_total", "tail records streamed to rejoining followers", func(s Stats) uint64 { return s.CatchupRecords })
	stat("qotp_repl_snapshots_sent_total", "snapshot installs shipped to truncated-gap followers", func(s Stats) uint64 { return s.SnapshotsSent })
	stat("qotp_repl_peer_down_total", "failure-detector / send-failure verdicts acted on", func(s Stats) uint64 { return s.PeerDown })
	stat("qotp_repl_fencings_total", "stale-term rejections observed", func(s Stats) uint64 { return s.Fenced })
	l.wAckWait = r.WindowOpts("qotp_repl_ack_wait_seconds", "time spent waiting for a follower quorum per batch", 10*time.Second, 20)
	// A demoted ex-leader must stop taking traffic: its serving path bounces
	// every submission with ErrConnLost, so the load balancer needs /readyz
	// to fail the moment the fencing lands.
	r.Ready("repl-leader", func() error {
		if t, d := l.Demoted(); d {
			return fmt.Errorf("demoted: newer term %d elected", t)
		}
		return nil
	})
}

// LogBatch implements the BatchLogger hook: append locally, stream to live
// followers, then honor the ack mode. Caller epochs follow the Writer's
// contract (first call pins the numbering, then +1 per call); the
// replication stream itself always speaks wal epochs.
func (l *Leader) LogBatch(epoch uint64, txns []*txn.Txn) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errors.New("repl: leader closed")
	}
	if l.demoted {
		l.mu.Unlock()
		return ErrDemoted
	}
	if !l.offSet {
		l.offset = l.w.NextEpoch() - epoch
		l.offSet = true
	}
	if epoch+l.offset != l.w.NextEpoch() {
		next := l.w.NextEpoch() - l.offset
		l.mu.Unlock()
		return fmt.Errorf("repl: non-monotonic epoch %d (expected %d)", epoch, next)
	}
	wnext := l.w.NextEpoch()
	l.scratch = txn.AppendBatch(l.scratch[:0], txns)
	// The payload is shared: the local append copies it into the log's own
	// frame buffer, the TCP transport serializes it before Send returns, and
	// the in-process transport's receivers treat payloads as read-only. It
	// must still outlive in-flight channel deliveries, so it is cloned out
	// of the reused scratch.
	payload := append([]byte(nil), l.scratch...)
	if err := l.w.LogRaw(wnext, payload); err != nil {
		l.mu.Unlock()
		return err
	}
	l.stats.Appends++
	for f, st := range l.fls {
		if st.state != StateLive {
			continue
		}
		if err := l.tr.Send(cluster.Msg{Type: cluster.MsgReplAppend, From: l.id, To: f, Batch: wnext, Flag: l.term, Payload: payload}); err != nil {
			l.markDownLocked(f, err)
			continue
		}
		if lag := l.w.NextEpoch() - st.acked; lag > uint64(l.opts.MaxLag) {
			// Shed: the follower falls out of the live stream; its tail
			// stays buffered in the log and catch-up re-delivers it.
			l.stats.Shed++
			l.toCatchupLocked(f, st.acked)
		}
	}
	var wt *waiter
	if l.opts.Ack == AckWaitK && l.opts.WaitFor > 0 {
		if l.ackedCountLocked(wnext) >= l.opts.WaitFor {
			l.mu.Unlock()
			return nil
		}
		wt = &waiter{epoch: wnext, need: l.opts.WaitFor, ch: make(chan struct{})}
		l.waiters = append(l.waiters, wt)
		l.stats.AckWaits++
	}
	l.mu.Unlock()
	if wt == nil {
		return nil
	}
	waitStart := time.Now()
	timer := time.NewTimer(l.opts.AckTimeout)
	defer timer.Stop()
	select {
	case <-wt.ch:
		l.wAckWait.ObserveDuration(time.Since(waitStart))
		return wt.err
	case <-l.quit:
		return nil
	case <-timer.C:
		l.wAckWait.ObserveDuration(time.Since(waitStart))
		// Degrade: commit with the surviving quorum; laggards that were
		// supposed to be live are shed to catch-up.
		l.mu.Lock()
		l.stats.Degraded++
		l.removeWaiterLocked(wt)
		for f, st := range l.fls {
			if st.state == StateLive && st.acked <= wnext {
				l.stats.Shed++
				l.toCatchupLocked(f, st.acked)
			}
		}
		l.mu.Unlock()
		return nil
	}
}

// Snapshot writes a point-in-time image of st into the leader's log and
// truncates the segments behind it (wal.Writer.Snapshot). Call at a batch
// boundary with no engine executing. Followers already past the snapshot
// epoch are unaffected; a follower whose catch-up gap falls behind it will
// receive the image (MsgReplSnap) before its tail.
func (l *Leader) Snapshot(st *storage.Store) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("repl: leader closed")
	}
	return l.w.Snapshot(st)
}

// ackedCountLocked counts followers whose durable watermark is past epoch.
func (l *Leader) ackedCountLocked(epoch uint64) int {
	n := 0
	for _, st := range l.fls {
		if st.acked > epoch {
			n++
		}
	}
	return n
}

func (l *Leader) removeWaiterLocked(wt *waiter) {
	for i, w := range l.waiters {
		if w == wt {
			l.waiters = append(l.waiters[:i], l.waiters[i+1:]...)
			return
		}
	}
}

// demoteLocked ends this node's reign: a peer proved a newer term exists.
// Every pending ack wait fails with ErrDemoted (the batch must NOT be acked
// to clients — only the new leader's log defines what committed), and every
// subsequent LogBatch fails fast. The log is left open for inspection; the
// application closes the leader and rejoins the cluster as a follower.
func (l *Leader) demoteLocked(newTerm uint64) {
	if l.demoted {
		if newTerm > l.demotedTo {
			l.demotedTo = newTerm
		}
		return
	}
	l.demoted = true
	l.demotedTo = newTerm
	l.stats.Fenced++
	waiters := l.waiters
	l.waiters = nil
	for _, wt := range waiters {
		wt.err = ErrDemoted
		close(wt.ch)
	}
}

// Demoted reports whether a newer-term leader has fenced this one off, and
// the term that did it.
func (l *Leader) Demoted() (term uint64, demoted bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.demotedTo, l.demoted
}

// Term returns the replication term this leader reigns at.
func (l *Leader) Term() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.term
}

func (l *Leader) markDownLocked(f int, cause error) {
	st := l.fls[f]
	if st == nil || st.state == StateDown {
		return
	}
	_ = cause
	st.state = StateDown
	l.stats.PeerDown++
}

// toCatchupLocked moves a follower into catch-up from the given epoch,
// starting the streaming goroutine unless one is already running (then the
// new position is handed to it — the "second rejoin during catch-up" path).
func (l *Leader) toCatchupLocked(f int, from uint64) {
	st := l.fls[f]
	if st == nil {
		return
	}
	if st.state == StateCatchup {
		st.helloFrom, st.hasHello = from, true
		return
	}
	st.state = StateCatchup
	st.helloFrom, st.hasHello = from, true
	go l.serveCatchup(f)
}

// recvLoop drains the leader's endpooint: follower acks satisfy waiting
// LogBatch calls, hellos start (or redirect) catch-up streams, and transport
// peer-down verdicts drop followers until they are heard from again.
func (l *Leader) recvLoop() {
	for {
		m, ok, down := recvFrom(l.tr, l.id, l.quit)
		if !ok {
			return
		}
		if down != nil {
			l.mu.Lock()
			l.markDownLocked(down.Peer, down)
			l.mu.Unlock()
			continue
		}
		if m.Flag > 0 {
			// Every repl message carries its sender's term. Any term above
			// ours is proof a newer leader was elected: this node's reign is
			// over, regardless of the message kind.
			l.mu.Lock()
			if m.Flag > l.term && !l.closed {
				l.demoteLocked(m.Flag)
				l.mu.Unlock()
				continue
			}
			l.mu.Unlock()
		}
		switch m.Type {
		case cluster.MsgReplFenced:
			// Stale-term rejection at our own term or below after the check
			// above: already demoted or a late duplicate; nothing to do.
		case cluster.MsgReplVoteReq:
			// A follower is holding an election at a term we've already
			// fenced (its Flag was <= our term). Re-assert leadership so
			// spurious detector verdicts don't split the cluster.
			_ = l.tr.Send(cluster.Msg{Type: cluster.MsgReplLeader, From: l.id, To: m.From, Batch: l.startEpoch, Flag: l.term})
		case cluster.MsgReplLeader:
			// Same-term announcement from another node: dual promotion after
			// a partitioned election. The longer log wins, ties to the lower
			// node id.
			l.mu.Lock()
			if !l.closed && m.Flag == l.term && m.From != l.id &&
				(m.Batch > l.startEpoch || (m.Batch == l.startEpoch && m.From < l.id)) {
				l.demoteLocked(m.Flag)
			}
			l.mu.Unlock()
		case cluster.MsgReplAck:
			l.mu.Lock()
			st := l.fls[m.From]
			if st == nil {
				l.mu.Unlock()
				continue
			}
			if m.Batch > st.acked {
				st.acked = m.Batch
			}
			if st.state == StateDown {
				// A down follower showed life with a position: re-admit it
				// through catch-up.
				l.toCatchupLocked(m.From, st.acked)
			}
			var fire []*waiter
			keep := l.waiters[:0]
			for _, wt := range l.waiters {
				if l.ackedCountLocked(wt.epoch) >= wt.need {
					fire = append(fire, wt)
				} else {
					keep = append(keep, wt)
				}
			}
			l.waiters = keep
			l.mu.Unlock()
			for _, wt := range fire {
				close(wt.ch)
			}
		case cluster.MsgReplHello:
			l.mu.Lock()
			if st := l.fls[m.From]; st != nil {
				if m.Batch > st.acked {
					st.acked = m.Batch
				}
				l.toCatchupLocked(m.From, m.Batch)
			}
			l.mu.Unlock()
		case cluster.MsgHeartbeat:
			// Proof of life from a follower the detector had written off:
			// re-admit it through catch-up from its last acked position.
			// (The TCP transport consumes its own heartbeats; these are the
			// follower protocol's beats, which reach us on any transport.)
			l.mu.Lock()
			if st := l.fls[m.From]; st != nil && st.state == StateDown {
				l.toCatchupLocked(m.From, st.acked)
			}
			l.mu.Unlock()
		default:
			// Not ours (e.g. a stray protocol message): ignore.
		}
	}
}

// serveCatchup streams one follower's gap from the leader's segments, in
// chunks, under the leader lock — appends interleave between chunks. When
// the gap closes it flips the follower live *while holding the lock*, so no
// batch can land between the last tail record and the first live append.
func (l *Leader) serveCatchup(f int) {
	var from uint64
	for {
		l.mu.Lock()
		st := l.fls[f]
		if st == nil || l.closed || st.state != StateCatchup {
			l.mu.Unlock()
			return
		}
		if st.hasHello {
			from, st.hasHello = st.helloFrom, false
		}
		if snapEpoch := l.w.SnapshotEpoch(); from < snapEpoch {
			// The gap starts behind the truncation point: ship the snapshot
			// image first, then the tail above it.
			epoch, image, err := wal.ReadSnapshotRaw(l.dir, l.fs)
			if err != nil {
				l.markDownLocked(f, err)
				l.mu.Unlock()
				return
			}
			if err := l.tr.Send(cluster.Msg{Type: cluster.MsgReplSnap, From: l.id, To: f, Batch: epoch, Flag: l.term, Payload: image}); err != nil {
				l.markDownLocked(f, err)
				l.mu.Unlock()
				return
			}
			l.stats.SnapshotsSent++
			from = epoch
		}
		next := l.w.NextEpoch()
		if from >= next {
			// Caught up: resume the live stream at this batch boundary.
			st.state = StateLive
			l.stats.Rejoins++
			err := l.tr.Send(cluster.Msg{Type: cluster.MsgReplResume, From: l.id, To: f, Batch: next, Flag: l.term})
			if err != nil {
				l.markDownLocked(f, err)
			}
			l.mu.Unlock()
			return
		}
		to := from + uint64(l.opts.ChunkRecords)
		if to > next {
			to = next
		}
		var sendErr error
		got, err := wal.ReadRange(l.dir, l.fs, from, to, func(epoch uint64, payload []byte) error {
			// Clone: the channel transport retains the slice until the
			// follower consumes it; ReadRange reuses its buffer per record.
			p := append([]byte(nil), payload...)
			if e := l.tr.Send(cluster.Msg{Type: cluster.MsgReplTail, From: l.id, To: f, Batch: epoch, Flag: l.term, Payload: p}); e != nil {
				sendErr = e
				return e
			}
			l.stats.CatchupRecords++
			return nil
		})
		if sendErr != nil || err != nil {
			if sendErr == nil {
				sendErr = err
			}
			l.markDownLocked(f, sendErr)
			l.mu.Unlock()
			return
		}
		if got == from {
			// No forward progress (live tail mid-growth): yield and retry.
			l.mu.Unlock()
			select {
			case <-l.quit:
				return
			case <-time.After(time.Millisecond):
			}
			continue
		}
		from = got
		l.mu.Unlock()
	}
}

// FollowerState reports the leader's view of one follower ("joining",
// "live", "catchup", "down") and its durable watermark.
func (l *Leader) FollowerState(f int) (state string, acked uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.fls[f]
	if st == nil {
		return "", 0
	}
	return st.state, st.acked
}

// NextEpoch returns the wal epoch the next LogBatch will occupy.
func (l *Leader) NextEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.NextEpoch()
}

// Stats returns a snapshot of the leader's counters.
func (l *Leader) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// WaitCaughtUp blocks until every follower is live with its ack watermark at
// the log's end (or the timeout expires, returning an error describing who
// lags). Down followers count as lagging — a crashed-and-restarted follower
// re-hellos its way back in, and that is exactly the convergence this waits
// for. Use before comparing replica state hashes.
func (l *Leader) WaitCaughtUp(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		l.mu.Lock()
		next := l.w.NextEpoch()
		lagging := ""
		for f, st := range l.fls {
			if st.state != StateLive || st.acked < next {
				lagging += fmt.Sprintf(" follower %d: %s acked=%d/%d;", f, st.state, st.acked, next)
			}
		}
		l.mu.Unlock()
		if lagging == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("repl: catch-up timeout:%s", lagging)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Close stops the leader and seals its log. It does not close the transport.
// The mutex serializes Close against any in-flight append or catch-up chunk;
// the internal loops observe the closed flag and drain on their own (the
// receive loop may stay parked until the transport closes — it never touches
// the sealed log).
func (l *Leader) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	err := l.w.Close()
	waiters := l.waiters
	l.waiters = nil
	l.mu.Unlock()
	for _, wt := range waiters {
		close(wt.ch)
	}
	close(l.quit)
	return err
}

// recvE is the optional typed-receive surface the hardened TCP transport
// (and LoopbackTCP) provide on top of the Transport interface.
type recvE interface {
	RecvE(id int) (cluster.Msg, error)
}

// recvFrom receives one message, preferring the typed surface: ok=false
// means the transport closed; down is a failure-detector verdict (message is
// empty then).
func recvFrom(tr cluster.Transport, id int, quit chan struct{}) (m cluster.Msg, ok bool, down *cluster.PeerDownError) {
	select {
	case <-quit:
		return cluster.Msg{}, false, nil
	default:
	}
	if re, isE := tr.(recvE); isE {
		msg, err := re.RecvE(id)
		if err == nil {
			return msg, true, nil
		}
		var pd *cluster.PeerDownError
		if errors.As(err, &pd) {
			return cluster.Msg{}, true, pd
		}
		return cluster.Msg{}, false, nil
	}
	msg, alive := tr.Recv(id)
	return msg, alive, nil
}
