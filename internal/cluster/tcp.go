package cluster

import (
	"encoding/gob"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/exploratory-systems/qotp/internal/obs"
)

// TCPTransport implements Transport over real TCP sockets using stdlib net
// and gob framing. It exists to prove the distributed engines run over an
// actual network stack; the benchmark suite uses ChanTransport so message
// rounds (not kernel overheads) dominate, as in the paper's analysis.
//
// Topology: node i listens on addrs[i] and dials every other node once; the
// resulting connection is used for i -> j traffic only, giving per-pair FIFO.
//
// Fault tolerance: every dial carries a timeout, every write a deadline, and
// a broken outbound connection is redialed with bounded jittered exponential
// backoff (amortized across later Sends — a dead peer costs at most one dial
// attempt per backoff window, not one per message). With TCPOptions
// heartbeats enabled, each node probes its peers every HeartbeatEvery and a
// failure detector declares a peer down after SuspectAfter of silence; the
// verdict surfaces as a typed *PeerDownError from RecvE (and from Send on a
// dead connection) instead of a Recv that blocks forever.
type TCPTransport struct {
	id    int
	addrs []string
	opts  TCPOptions
	ln    net.Listener
	inbox chan Msg
	// events carries failure-detector verdicts to RecvE.
	events chan *PeerDownError
	quit   chan struct{}

	conns  []net.Conn
	encs   []*gob.Encoder
	sendMu []sync.Mutex
	// redial backoff state per peer, guarded by the peer's sendMu.
	dialAttempts []int
	nextDial     []time.Time

	// lastHeard[i] is the UnixNano of the last message (heartbeats included)
	// received from peer i; 0 = never heard.
	lastHeard []atomic.Int64
	// suspected[i] = 1 once the detector has announced peer i down; cleared
	// when the peer is heard again (so each outage is announced once).
	suspected []atomic.Int32

	wg         sync.WaitGroup
	count      atomic.Uint64
	bytes      atomic.Uint64
	reconnects atomic.Uint64
	closed     atomic.Bool
}

var _ Transport = (*TCPTransport)(nil)

// TCPOptions tunes the transport's fault-tolerance behavior. The zero value
// of any field selects its default; DefaultTCPOptions lists them.
type TCPOptions struct {
	// DialTimeout bounds every connection attempt (default 5s).
	DialTimeout time.Duration
	// DialAttempts bounds the initial Connect retries per peer and, after a
	// connection breaks, the redial attempts before Send fails permanently
	// for that peer until it is heard from again (default 10).
	DialAttempts int
	// BackoffBase and BackoffMax shape the jittered exponential redial
	// backoff: attempt n waits a uniformly random duration in
	// (0, min(BackoffBase<<n, BackoffMax)] (defaults 25ms and 1s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// WriteTimeout is the per-message write deadline (default 10s). A peer
	// that stops draining its socket fails the Send instead of wedging the
	// sender forever.
	WriteTimeout time.Duration
	// HeartbeatEvery > 0 sends a MsgHeartbeat to every peer at this interval.
	// Heartbeats are consumed by the receiving transport (never delivered to
	// Recv) and are not counted in Messages/Bytes — protocol message-count
	// conformance is unaffected. 0 disables heartbeats (the default: the
	// engines' round protocols are naturally chatty; opt in where liveness
	// detection matters, e.g. replication).
	HeartbeatEvery time.Duration
	// SuspectAfter > 0 arms the failure detector: a peer heard from at least
	// once and then silent for this long is declared down via RecvE (default
	// 4x HeartbeatEvery when heartbeats are on, else disabled).
	SuspectAfter time.Duration
	// Metrics, when non-nil, receives the transport's observability
	// instruments: traffic counters, redials, per-peer liveness (labeled
	// node=<id>, peer=<j>). A restarted transport created with the same
	// options re-registers its series; gauges then point at the new
	// instance's state.
	Metrics *obs.Registry
	// MetricsMesh, when non-empty, adds a mesh=<name> label to every series,
	// so a process running several meshes (e.g. an engine mesh and a
	// replication mesh) keeps their series distinct in one registry.
	MetricsMesh string
}

func (o *TCPOptions) normalize() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.DialAttempts <= 0 {
		o.DialAttempts = 10
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 25 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.SuspectAfter <= 0 && o.HeartbeatEvery > 0 {
		o.SuspectAfter = 4 * o.HeartbeatEvery
	}
}

// DefaultTCPOptions returns the defaults NewTCPTransport uses: 5s dials, 10
// attempts, 25ms..1s jittered backoff, 10s write deadline, heartbeats off.
func DefaultTCPOptions() TCPOptions {
	var o TCPOptions
	o.normalize()
	return o
}

// LoopbackTCP is N per-node TCP transports hosted in one process, adapted to
// the single Transport interface the engines drive — the deployment shape of
// cmd/qotpd and examples/server: real sockets, one process. Production
// deploys one TCPTransport per host instead.
type LoopbackTCP struct {
	mu         sync.RWMutex
	transports []*TCPTransport
	opts       TCPOptions
}

var _ Transport = (*LoopbackTCP)(nil)

// StartLoopbackTCP binds n nodes to 127.0.0.1:0 listeners, exchanges the
// bound addresses, and fully connects the mesh. On any mid-setup failure the
// already-started transports are closed before the error is returned, so a
// partial mesh never leaks listeners or accept goroutines.
func StartLoopbackTCP(n int) (*LoopbackTCP, error) {
	return StartLoopbackTCPOpts(n, DefaultTCPOptions())
}

// StartLoopbackTCPOpts is StartLoopbackTCP with explicit transport options
// (heartbeats, failure detection, deadlines).
func StartLoopbackTCPOpts(n int, opts TCPOptions) (*LoopbackTCP, error) {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	transports := make([]*TCPTransport, 0, n)
	fail := func(err error) (*LoopbackTCP, error) {
		for _, tr := range transports {
			tr.Close()
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		tr := NewTCPTransportOpts(i, addrs, opts)
		if err := tr.Start(); err != nil {
			return fail(err)
		}
		transports = append(transports, tr)
		addrs[i] = tr.Addr()
	}
	for _, tr := range transports {
		if err := tr.Connect(); err != nil {
			return fail(err)
		}
	}
	return &LoopbackTCP{transports: transports, opts: opts}, nil
}

// Addrs returns each node's bound listen address.
func (f *LoopbackTCP) Addrs() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, len(f.transports))
	for i, tr := range f.transports {
		out[i] = tr.Addr()
	}
	return out
}

// Endpoint returns node i's transport — e.g. to Close it, simulating a
// process kill that severs that node's connections.
func (f *LoopbackTCP) Endpoint(i int) *TCPTransport {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.transports[i]
}

// Restart replaces node i's transport with a fresh one bound to the same
// address, as a restarted process would: it re-listens, re-dials its peers,
// and peers' broken connections to it heal through their redial backoff on
// the next Send. Close the old endpoint first (Restart also does, in case).
func (f *LoopbackTCP) Restart(i int) (*TCPTransport, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	old := f.transports[i]
	old.Close()
	addrs := make([]string, len(f.transports))
	for j, tr := range f.transports {
		addrs[j] = tr.Addr()
	}
	tr := NewTCPTransportOpts(i, addrs, f.opts)
	if err := tr.Start(); err != nil {
		return nil, err
	}
	if err := tr.Connect(); err != nil {
		tr.Close()
		return nil, err
	}
	f.transports[i] = tr
	return tr, nil
}

// Nodes implements Transport.
func (f *LoopbackTCP) Nodes() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.transports)
}

// Send implements Transport: routed via the sending node's transport.
func (f *LoopbackTCP) Send(m Msg) error {
	f.mu.RLock()
	tr := f.transports[m.From]
	f.mu.RUnlock()
	return tr.Send(m)
}

// Recv implements Transport.
func (f *LoopbackTCP) Recv(id int) (Msg, bool) {
	f.mu.RLock()
	tr := f.transports[id]
	f.mu.RUnlock()
	return tr.Recv(id)
}

// RecvE is Recv with typed errors (see TCPTransport.RecvE).
func (f *LoopbackTCP) RecvE(id int) (Msg, error) {
	f.mu.RLock()
	tr := f.transports[id]
	f.mu.RUnlock()
	return tr.RecvE(id)
}

// Messages implements Transport (sum over nodes).
func (f *LoopbackTCP) Messages() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var n uint64
	for _, tr := range f.transports {
		n += tr.Messages()
	}
	return n
}

// Bytes implements Transport (sum over nodes).
func (f *LoopbackTCP) Bytes() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var n uint64
	for _, tr := range f.transports {
		n += tr.Bytes()
	}
	return n
}

// Close implements Transport.
func (f *LoopbackTCP) Close() {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, tr := range f.transports {
		tr.Close()
	}
}

// NewTCPTransport creates the transport for node id of the given address
// list with DefaultTCPOptions. Start must be called on every node before
// Connect is called on any.
func NewTCPTransport(id int, addrs []string) *TCPTransport {
	return NewTCPTransportOpts(id, addrs, DefaultTCPOptions())
}

// NewTCPTransportOpts is NewTCPTransport with explicit options.
func NewTCPTransportOpts(id int, addrs []string, opts TCPOptions) *TCPTransport {
	opts.normalize()
	t := &TCPTransport{
		id:           id,
		addrs:        addrs,
		opts:         opts,
		inbox:        make(chan Msg, 65536),
		events:       make(chan *PeerDownError, 4*len(addrs)+4),
		quit:         make(chan struct{}),
		conns:        make([]net.Conn, len(addrs)),
		encs:         make([]*gob.Encoder, len(addrs)),
		sendMu:       make([]sync.Mutex, len(addrs)),
		dialAttempts: make([]int, len(addrs)),
		nextDial:     make([]time.Time, len(addrs)),
		lastHeard:    make([]atomic.Int64, len(addrs)),
		suspected:    make([]atomic.Int32, len(addrs)),
	}
	if opts.Metrics != nil {
		t.registerMetrics()
	}
	return t
}

// registerMetrics wires the transport's instruments into opts.Metrics. Every
// gauge reads the same atomics the transport's own loops write, so scrapes
// are race-free by construction.
func (t *TCPTransport) registerMetrics() {
	r := t.opts.Metrics
	base := []obs.Label{obs.L("node", strconv.Itoa(t.id))}
	if t.opts.MetricsMesh != "" {
		base = append(base, obs.L("mesh", t.opts.MetricsMesh))
	}
	r.GaugeUint("qotp_cluster_messages_total", "payload messages sent", &t.count, base...)
	r.GaugeUint("qotp_cluster_bytes_total", "payload bytes sent", &t.bytes, base...)
	r.GaugeUint("qotp_cluster_reconnects_total", "successful peer redials after a broken connection", &t.reconnects, base...)
	for j := range t.addrs {
		if j == t.id {
			continue
		}
		pls := append(append([]obs.Label(nil), base...), obs.L("peer", strconv.Itoa(j)))
		r.Gauge("qotp_cluster_peer_state", "peer liveness: 0 never heard, 1 up, 2 suspect", func() float64 {
			if t.suspected[j].Load() != 0 {
				return 2
			}
			if t.lastHeard[j].Load() == 0 {
				return 0
			}
			return 1
		}, pls...)
		r.Gauge("qotp_cluster_peer_silence_seconds", "seconds since the peer was last heard (-1 never)", func() float64 {
			at := t.lastHeard[j].Load()
			if at == 0 {
				return -1
			}
			return time.Since(time.Unix(0, at)).Seconds()
		}, pls...)
	}
}

// Start begins listening for peer connections. The accept loop runs until
// Close — a restarted peer dials a fresh connection mid-run and is served
// like the original one (online rejoin needs late connections).
func (t *TCPTransport) Start() error {
	ln, err := net.Listen("tcp", t.addrs[t.id])
	if err != nil {
		return fmt.Errorf("cluster: node %d listen %s: %w", t.id, t.addrs[t.id], err)
	}
	t.ln = ln
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			t.wg.Add(1)
			go t.readLoop(conn)
		}
	}()
	if t.opts.HeartbeatEvery > 0 {
		t.wg.Add(1)
		go t.heartbeatLoop()
	}
	if t.opts.SuspectAfter > 0 {
		t.wg.Add(1)
		go t.detectLoop()
	}
	return nil
}

// readLoop drains one inbound connection: heartbeats feed the failure
// detector and are swallowed; everything else lands in the inbox. A decode
// error (peer died, peer restarted, deadline hit) ends the loop and — when
// the connection had identified its peer — files a peer-down event.
func (t *TCPTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	dec := gob.NewDecoder(conn)
	from := -1
	// With heartbeats on, a live peer writes at least every HeartbeatEvery;
	// allow well past the detector threshold before giving up the read.
	idle := 4 * t.opts.SuspectAfter
	for {
		if t.opts.HeartbeatEvery > 0 && idle > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(idle))
		}
		var m Msg
		if err := dec.Decode(&m); err != nil {
			if from >= 0 {
				t.reportDown(from, err)
			}
			return
		}
		if m.From >= 0 && m.From < len(t.lastHeard) {
			from = m.From
			t.lastHeard[m.From].Store(time.Now().UnixNano())
			t.suspected[m.From].Store(0) // heard again: re-arm the detector
		}
		if m.Type == MsgHeartbeat {
			continue
		}
		select {
		case t.inbox <- m:
		case <-t.quit:
			return
		}
	}
}

// heartbeatLoop probes every peer at HeartbeatEvery. The probe doubles as
// the reconnect driver: sending to a broken peer attempts a (backoff-gated)
// redial, so a restarted peer is re-connected without protocol traffic.
func (t *TCPTransport) heartbeatLoop() {
	defer t.wg.Done()
	tick := time.NewTicker(t.opts.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-t.quit:
			return
		case <-tick.C:
			for i := range t.addrs {
				if i == t.id {
					continue
				}
				_ = t.send(Msg{Type: MsgHeartbeat, From: t.id, To: i}, false)
			}
		}
	}
}

// detectLoop turns silence into typed peer-down events: a peer heard from at
// least once and then silent for SuspectAfter is announced (once per outage)
// on the events channel RecvE drains.
func (t *TCPTransport) detectLoop() {
	defer t.wg.Done()
	period := t.opts.SuspectAfter / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-t.quit:
			return
		case <-tick.C:
			now := time.Now().UnixNano()
			for i := range t.addrs {
				if i == t.id {
					continue
				}
				last := t.lastHeard[i].Load()
				if last == 0 || now-last < int64(t.opts.SuspectAfter) {
					continue
				}
				t.reportDown(i, nil)
			}
		}
	}
}

// reportDown files one peer-down event per outage (deduplicated until the
// peer is heard from again); a full events channel drops the event — the
// verdict is advisory, Send errors carry it too.
func (t *TCPTransport) reportDown(peer int, cause error) {
	if !t.suspected[peer].CompareAndSwap(0, 1) {
		return
	}
	select {
	case t.events <- &PeerDownError{Peer: peer, Cause: cause}:
	default:
	}
}

// Addr returns the transport's bound listen address (useful with ":0").
func (t *TCPTransport) Addr() string {
	if t.ln == nil {
		return t.addrs[t.id]
	}
	return t.ln.Addr().String()
}

// dial attempts one connection to peer i within DialTimeout.
func (t *TCPTransport) dial(i int) (net.Conn, error) {
	return net.DialTimeout("tcp", t.addrs[i], t.opts.DialTimeout)
}

// Connect dials every peer, retrying each with jittered exponential backoff
// up to DialAttempts. Call after all nodes Started.
func (t *TCPTransport) Connect() error {
	for i := range t.addrs {
		if i == t.id {
			continue
		}
		var conn net.Conn
		var err error
		for attempt := 0; attempt < t.opts.DialAttempts; attempt++ {
			if attempt > 0 {
				select {
				case <-time.After(t.backoff(attempt)):
				case <-t.quit:
					return fmt.Errorf("cluster: transport closed")
				}
			}
			if conn, err = t.dial(i); err == nil {
				break
			}
		}
		if err != nil {
			return fmt.Errorf("cluster: node %d dial %s: %w", t.id, t.addrs[i], err)
		}
		t.sendMu[i].Lock()
		t.conns[i] = conn
		t.encs[i] = gob.NewEncoder(conn)
		t.dialAttempts[i] = 0
		t.sendMu[i].Unlock()
	}
	return nil
}

// backoff returns the jittered wait before dial attempt n: uniform in
// (0, min(BackoffBase<<n, BackoffMax)].
func (t *TCPTransport) backoff(attempt int) time.Duration {
	d := t.opts.BackoffBase << uint(min(attempt, 20))
	if d > t.opts.BackoffMax || d <= 0 {
		d = t.opts.BackoffMax
	}
	return time.Duration(rand.Int63n(int64(d))) + 1
}

// Nodes implements Transport.
func (t *TCPTransport) Nodes() int { return len(t.addrs) }

// Send implements Transport. A Send over a broken connection redials under
// the peer's backoff schedule; while the peer stays unreachable, Send fails
// fast with a *PeerDownError (errors.Is(err, ErrPeerDown)) instead of
// blocking — the caller decides whether to shed or retry.
func (t *TCPTransport) Send(m Msg) error { return t.send(m, true) }

func (t *TCPTransport) send(m Msg, counted bool) error {
	if m.To == t.id {
		if counted {
			t.count.Add(1)
			t.bytes.Add(PayloadBytes(&m))
		}
		select {
		case t.inbox <- m:
		case <-t.quit:
			return fmt.Errorf("cluster: transport closed")
		}
		return nil
	}
	if m.To < 0 || m.To >= len(t.addrs) {
		return fmt.Errorf("cluster: send to invalid node %d", m.To)
	}
	t.sendMu[m.To].Lock()
	defer t.sendMu[m.To].Unlock()
	if t.encs[m.To] == nil {
		if err := t.redialLocked(m.To); err != nil {
			return err
		}
	}
	if counted {
		t.count.Add(1)
		t.bytes.Add(PayloadBytes(&m))
	}
	if t.opts.WriteTimeout > 0 {
		_ = t.conns[m.To].SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout))
	}
	// gob serializes synchronously into the socket before returning, so the
	// caller may recycle m.Payload as soon as Send returns.
	if err := t.encs[m.To].Encode(&m); err != nil {
		// The connection is dead (peer gone, or deadline hit): drop it, arm
		// the redial backoff, and surface a typed verdict.
		t.conns[m.To].Close()
		t.conns[m.To], t.encs[m.To] = nil, nil
		t.dialAttempts[m.To] = 1
		t.nextDial[m.To] = time.Now().Add(t.backoff(1))
		t.reportDown(m.To, err)
		return &PeerDownError{Peer: m.To, Cause: err}
	}
	return nil
}

// redialLocked (re)establishes the outbound connection to peer i, rate-
// limited by the jittered exponential backoff schedule. Caller holds
// sendMu[i].
func (t *TCPTransport) redialLocked(i int) error {
	if t.closed.Load() {
		return fmt.Errorf("cluster: transport closed")
	}
	if t.dialAttempts[i] >= t.opts.DialAttempts {
		// Attempts exhausted: stay down until the peer is heard from again
		// (an inbound message resets the budget — see RecvE callers).
		if t.suspected[i].Load() == 0 || t.lastHeard[i].Load() > t.nextDial[i].UnixNano() {
			t.dialAttempts[i] = 0 // peer showed life: new budget
		} else {
			return &PeerDownError{Peer: i}
		}
	}
	if now := time.Now(); now.Before(t.nextDial[i]) {
		return &PeerDownError{Peer: i} // backing off: fail fast, retry later
	}
	conn, err := t.dial(i)
	if err != nil {
		t.dialAttempts[i]++
		t.nextDial[i] = time.Now().Add(t.backoff(t.dialAttempts[i]))
		t.reportDown(i, err)
		return &PeerDownError{Peer: i, Cause: err}
	}
	t.conns[i] = conn
	t.encs[i] = gob.NewEncoder(conn)
	t.dialAttempts[i] = 0
	t.nextDial[i] = time.Time{}
	t.reconnects.Add(1)
	// Re-admit the peer in the detector's book-keeping: a successful dial is
	// proof of life, so clear the suspect verdict and restart the silence
	// clock. Without this a peer that recovered behind a flapping link stayed
	// permanently marked down (suspected never cleared until it happened to
	// send us traffic first).
	t.suspected[i].Store(0)
	t.lastHeard[i].Store(time.Now().UnixNano())
	return nil
}

// Recv implements Transport. The id argument must equal the node's own id
// (each TCPTransport instance serves exactly one node). Failure-detector
// verdicts are skipped here — protocols that want them use RecvE.
func (t *TCPTransport) Recv(id int) (Msg, bool) {
	for {
		m, err := t.RecvE(id)
		if err == nil {
			return m, true
		}
		if _, down := err.(*PeerDownError); down {
			continue
		}
		return Msg{}, false
	}
}

// RecvE returns the next message for node id, or a typed error: a
// *PeerDownError when the failure detector declares a peer dead (the caller
// keeps receiving afterwards — other peers are unaffected), or a plain error
// when the transport is closed.
func (t *TCPTransport) RecvE(id int) (Msg, error) {
	if id != t.id {
		return Msg{}, fmt.Errorf("cluster: node %d cannot recv for %d", t.id, id)
	}
	select {
	case m := <-t.inbox:
		return m, nil
	case ev := <-t.events:
		return Msg{}, ev
	case <-t.quit:
		return Msg{}, fmt.Errorf("cluster: transport closed")
	}
}

// Messages implements Transport.
func (t *TCPTransport) Messages() uint64 { return t.count.Load() }

// Bytes implements Transport.
func (t *TCPTransport) Bytes() uint64 { return t.bytes.Load() }

// Close implements Transport.
func (t *TCPTransport) Close() {
	if !t.closed.CompareAndSwap(false, true) {
		return
	}
	close(t.quit)
	if t.ln != nil {
		t.ln.Close()
	}
	for i := range t.conns {
		t.sendMu[i].Lock()
		if t.conns[i] != nil {
			t.conns[i].Close()
		}
		t.sendMu[i].Unlock()
	}
}
