package bench

import (
	"strings"
	"testing"

	"github.com/exploratory-systems/qotp/internal/engine"
)

// distEngines is every name Run's distributed switch accepts.
var distEngines = []string{"quecc-d", "quecc-d-pipe", "quecc-d-spec", "calvin-d", "calvin-d-pipe", "hstore-d"}

// tinySpec is an aborting, partly multi-partition YCSB run small enough to
// finish in milliseconds.
func tinySpec(engine string, nodes int) Spec {
	s := Spec{
		Engine: engine, Workload: "ycsb", Threads: 2, Planners: 2,
		Batches: 3, BatchSize: 200, Nodes: nodes,
	}
	s.YCSB.Records = 1 << 10
	s.YCSB.OpsPerTxn = 8
	s.YCSB.ReadRatio = 0.5
	s.YCSB.RMWRatio = 0.25
	s.YCSB.Theta = 0.6
	s.YCSB.MultiPartitionRatio = 0.2
	s.YCSB.MultiPartitionCount = 2
	s.YCSB.AbortRatio = 0.05
	s.YCSB.Seed = 7
	return s
}

// TestRunEveryEngine drives every engine name Run accepts — each centralized
// protocol and each distributed leader — through the warm-up / measure /
// Finalize loop. The pipelined and speculating drivers (quecc-pipe,
// quecc-spec with its three-arena rotation, and the -pipe / -spec leaders)
// appear in no registered experiment, so this is where the harness side of
// those paths is exercised. Every measured transaction must be accounted for
// exactly once, and the warm-up batches must not leak into the window.
func TestRunEveryEngine(t *testing.T) {
	var names []string
	for _, p := range engine.Protocols {
		names = append(names, p.Name)
	}
	names = append(names, distEngines...)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			nodes := 0
			if strings.HasSuffix(name, "-d") || strings.Contains(name, "-d-") {
				nodes = 2
			}
			s := tinySpec(name, nodes)
			r, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			snap := r.Snapshot
			if want := uint64(s.Batches * s.BatchSize); snap.Committed+snap.UserAborts != want {
				t.Errorf("committed(%d)+aborts(%d) != %d measured txns", snap.Committed, snap.UserAborts, want)
			}
			if snap.UserAborts == 0 {
				t.Error("expected some user aborts at AbortRatio 0.05")
			}
			if nodes > 0 && (snap.Messages == 0 || r.BytesPerMsg == 0) {
				t.Errorf("distributed run reported msgs=%d bytes/msg=%.1f", snap.Messages, r.BytesPerMsg)
			}
			if nodes == 0 && snap.Messages != 0 {
				t.Errorf("centralized run reported %d messages", snap.Messages)
			}
		})
	}
}

// TestRunRejectsEngineNodeMismatch pins the distributed name switch: a
// centralized protocol asked to run on a cluster, or a distributed leader
// asked to run without one, is an error rather than a silent substitution.
func TestRunRejectsEngineNodeMismatch(t *testing.T) {
	if _, err := Run(tinySpec("quecc", 2)); err == nil || !strings.Contains(err.Error(), "not distributed") {
		t.Errorf("quecc with Nodes=2: got %v, want a not-distributed error", err)
	}
	if _, err := Run(tinySpec("quecc-d", 0)); err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Errorf("quecc-d with Nodes=0: got %v, want an unknown-protocol error", err)
	}
}
