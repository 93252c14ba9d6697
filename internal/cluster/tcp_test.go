package cluster

import (
	"errors"
	"testing"
	"time"

	"github.com/exploratory-systems/qotp/internal/obs"
)

// TestTCPRestartReconnects kills one node's transport and restarts it on the
// same address: peers must heal their broken connections through the bounded
// redial backoff and deliver again, with no transport rebuild. Before the
// restart it pins the mesh-labelled traffic and liveness series.
func TestTCPRestartReconnects(t *testing.T) {
	reg := obs.New()
	lb, err := StartLoopbackTCPOpts(2, TCPOptions{Metrics: reg, MetricsMesh: "engine"})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	if err := lb.Send(Msg{Type: MsgAck, From: 0, To: 1, Batch: 1}); err != nil {
		t.Fatal(err)
	}
	if m, ok := lb.Recv(1); !ok || m.Batch != 1 {
		t.Fatalf("pre-restart recv: %+v ok=%v", m, ok)
	}
	mesh := obs.L("mesh", "engine")
	if v, ok := reg.Value("qotp_cluster_messages_total", mesh, obs.L("node", "0")); !ok || v != 1 {
		t.Errorf("qotp_cluster_messages_total{mesh=engine,node=0} = (%v, %v), want (1, true)", v, ok)
	}
	if v, ok := reg.Value("qotp_cluster_peer_state", mesh, obs.L("node", "1"), obs.L("peer", "0")); !ok || v != 1 {
		t.Errorf("qotp_cluster_peer_state{mesh=engine,node=1,peer=0} = (%v, %v), want (1 = up, true)", v, ok)
	}

	if _, err := lb.Restart(1); err != nil {
		t.Fatal(err)
	}

	// The sender's old connection is dead; Send fails (or buffers into the
	// void) until the backoff redial lands on the new listener. Retry until
	// a message actually arrives.
	got := make(chan Msg, 1)
	go func() {
		for {
			m, ok := lb.Recv(1)
			if !ok {
				return
			}
			if m.Type == MsgAck && m.Batch == 2 {
				got <- m
				return
			}
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_ = lb.Send(Msg{Type: MsgAck, From: 0, To: 1, Batch: 2})
		select {
		case <-got:
			return
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("message never delivered after restart")
		}
	}
}

// TestTCPHeartbeatFailureDetector enables heartbeats and kills a peer: the
// survivor's RecvE must surface a typed PeerDownError naming the dead node
// instead of blocking forever.
func TestTCPHeartbeatFailureDetector(t *testing.T) {
	lb, err := StartLoopbackTCPOpts(2, TCPOptions{
		HeartbeatEvery: 10 * time.Millisecond,
		SuspectAfter:   100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	// Let heartbeats establish liveness, then kill node 1.
	time.Sleep(50 * time.Millisecond)
	lb.Endpoint(1).Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		done := make(chan error, 1)
		go func() {
			_, err := lb.RecvE(0)
			done <- err
		}()
		var err error
		select {
		case err = <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("RecvE hung after peer death — no failure-detector verdict")
		}
		if err != nil {
			if !errors.Is(err, ErrPeerDown) {
				t.Fatalf("RecvE error %v, want ErrPeerDown", err)
			}
			var pd *PeerDownError
			if !errors.As(err, &pd) || pd.Peer != 1 {
				t.Fatalf("verdict %v, want peer 1", err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no peer-down verdict before deadline")
		}
	}
}

// TestTCPSendFailFastWhenDown: once a peer's connection is broken and a send
// has failed, further sends during the backoff window return a typed
// ErrPeerDown immediately instead of re-dialing (and blocking) every time.
func TestTCPSendFailFastWhenDown(t *testing.T) {
	lb, err := StartLoopbackTCPOpts(2, TCPOptions{
		DialAttempts: 3,
		BackoffBase:  5 * time.Millisecond,
		BackoffMax:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	lb.Endpoint(1).Close()

	// The first sends may still buffer into the dying socket; keep sending
	// until the breakage surfaces as a typed error.
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := lb.Send(Msg{Type: MsgAck, From: 0, To: 1})
		if err != nil {
			if !errors.Is(err, ErrPeerDown) {
				t.Fatalf("send error %v, want ErrPeerDown", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sends to a dead peer never failed")
		}
		time.Sleep(time.Millisecond)
	}

	// Now in backoff: sends must fail fast, not hang on fresh dials.
	start := time.Now()
	for i := 0; i < 50; i++ {
		if err := lb.Send(Msg{Type: MsgAck, From: 0, To: 1}); err == nil {
			t.Fatal("send to dead peer unexpectedly succeeded")
		}
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("50 sends to a down peer took %v — not failing fast", took)
	}
}
