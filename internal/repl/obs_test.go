package repl

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/exploratory-systems/qotp/internal/cluster"
	"github.com/exploratory-systems/qotp/internal/obs"
	"github.com/exploratory-systems/qotp/internal/wal"
	"github.com/exploratory-systems/qotp/internal/workload/ycsb"
)

// readyErr returns the first failing readiness probe, or nil if all pass.
func readyErr(reg *obs.Registry) error {
	for _, c := range reg.CheckReady() {
		if c.Err != nil {
			return c.Err
		}
	}
	return nil
}

// TestReadyzFollowerCatchup pins the /readyz contract a load balancer keys
// on: a follower that has not caught up to the leader's stream reports
// not-ready, and flips ready once it is live. The first half is
// deterministic — with no leader on the transport the follower can never go
// live; the second half restarts it against a real leader and polls for the
// flip. Along the way it pins the replication and log series of one shared
// registry: role, per-follower lag before and after catch-up, fencings, and
// the {log=<dir>}-labelled fsync and segment series of both logs.
func TestReadyzFollowerCatchup(t *testing.T) {
	const parts, batchSize = 4, 32

	// No leader endpoint exists, so the hello goes unanswered: the follower
	// must stay not-live and its readiness probe must say so.
	tr := cluster.NewChanTransport(2, 0)
	defer tr.Close()
	reg := obs.New()
	rep := newReplica(t, parts)
	fo := rep.followerOptions(t.TempDir(), nil)
	fo.Metrics = reg
	f, err := StartFollower(tr, 1, 0, fo)
	if err != nil {
		t.Fatal(err)
	}
	if rerr := readyErr(reg); rerr == nil {
		t.Fatal("leaderless follower reports ready, want catching-up error")
	} else if !strings.Contains(rerr.Error(), "catching up") {
		t.Fatalf("readiness error %q, want it to mention catching up", rerr)
	}
	if v, ok := reg.Value("qotp_repl_live", obs.L("node", "1")); !ok || v != 0 {
		t.Fatalf("qotp_repl_live = (%v, %v), want (0, true)", v, ok)
	}
	f.Close()

	// Now a real leader with a logged backlog: the fresh follower starts in
	// catch-up and must turn ready once the replay lands. Leader, follower and
	// both logs share one registry, as on a node's single /metrics page.
	const nBatches = 4
	tr2 := cluster.NewChanTransport(2, 0)
	defer tr2.Close()
	reg2 := obs.New()
	root := t.TempDir()
	ldr, err := OpenLeader(filepath.Join(root, "leader"), tr2, 0, []int{1}, Options{
		Metrics: reg2, WAL: wal.Options{Metrics: reg2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ldr.Close()
	gen := ycsb.MustNew(ycsbCfg(parts))
	for i := 0; i < nBatches; i++ {
		if err := ldr.LogBatch(uint64(i), gen.NextBatch(batchSize)); err != nil {
			t.Fatal(err)
		}
	}
	leaderL, followerL := obs.L("node", "0"), obs.L("follower", "1")
	wantSeries(t, reg2, "qotp_repl_role", 1, leaderL)
	wantSeries(t, reg2, "qotp_repl_follower_lag", nBatches, leaderL, followerL) // nothing acked yet
	rep2 := newReplica(t, parts)
	fo2 := rep2.followerOptions(filepath.Join(root, "node1"), nil)
	fo2.Metrics = reg2
	fo2.WAL.Metrics = reg2
	f2, err := StartFollower(tr2, 1, 0, fo2)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	deadline := time.Now().Add(10 * time.Second)
	for readyErr(reg2) != nil {
		if time.Now().After(deadline) {
			t.Fatalf("follower never turned ready: %v (stats %+v)", readyErr(reg2), f2.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if v, ok := reg2.Value("qotp_repl_live", obs.L("node", "1")); !ok || v != 1 {
		t.Fatalf("qotp_repl_live = (%v, %v), want (1, true)", v, ok)
	}
	if err := ldr.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	wantSeries(t, reg2, "qotp_repl_role", 0, obs.L("node", "1"))
	wantSeries(t, reg2, "qotp_repl_follower_lag", 0, leaderL, followerL)
	wantSeries(t, reg2, "qotp_repl_fencings_total", 0, leaderL)
	wantSeries(t, reg2, "qotp_repl_fencings_total", 0, obs.L("node", "1"))
	// Each log's series carry its directory's name: the leader fsynced every
	// batch (SyncEachBatch), and both logs hold a live segment.
	if v, ok := reg2.Value("qotp_wal_fsync_seconds_count", obs.L("log", "leader")); !ok || v < nBatches {
		t.Errorf("qotp_wal_fsync_seconds_count{log=leader} = (%v, %v), want >= %d", v, ok, nBatches)
	}
	for _, log := range []string{"leader", "node1"} {
		if v, ok := reg2.Value("qotp_wal_segments", obs.L("log", log)); !ok || v < 1 {
			t.Errorf("qotp_wal_segments{log=%s} = (%v, %v), want >= 1", log, v, ok)
		}
	}
}

// wantSeries fails the test unless the registry holds the series with value
// want.
func wantSeries(t *testing.T, reg *obs.Registry, name string, want float64, labels ...obs.Label) {
	t.Helper()
	if v, ok := reg.Value(name, labels...); !ok || v != want {
		t.Errorf("%s%v = (%v, %v), want (%v, true)", name, labels, v, ok, want)
	}
}

// TestReadyzLeaderDemoted pins the other half of the contract: a leader
// fenced off by a newer term must flip its readiness probe to not-ready (the
// ex-leader keeps serving scrapes but tells the balancer to route away), and
// the qotp_repl_demoted gauge must rise.
func TestReadyzLeaderDemoted(t *testing.T) {
	tr := cluster.NewChanTransport(2, 0)
	defer tr.Close()
	reg := obs.New()
	ldr, err := OpenLeader(t.TempDir(), tr, 0, []int{1}, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer ldr.Close()
	if rerr := readyErr(reg); rerr != nil {
		t.Fatalf("fresh leader not ready: %v", rerr)
	}

	// A fenced rejection carrying a newer term (Flag > leader term) demotes.
	if err := tr.Send(cluster.Msg{Type: cluster.MsgReplFenced, From: 1, To: 0, Flag: 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, demoted := ldr.Demoted(); demoted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader never demoted after fenced message")
		}
		time.Sleep(time.Millisecond)
	}
	rerr := readyErr(reg)
	if rerr == nil {
		t.Fatal("demoted leader reports ready, want demotion error")
	}
	if !strings.Contains(rerr.Error(), "demoted") {
		t.Fatalf("readiness error %q, want it to mention demotion", rerr)
	}
	if v, ok := reg.Value("qotp_repl_demoted", obs.L("node", "0")); !ok || v != 1 {
		t.Fatalf("qotp_repl_demoted = (%v, %v), want (1, true)", v, ok)
	}
}
