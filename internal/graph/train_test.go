package graph_test

import (
	"testing"

	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/graph"
	"astrasim/internal/noc"
	"astrasim/internal/system"
	"astrasim/internal/topology"
	"astrasim/internal/workload"
)

// pipelineTrainRun is everything the trains differential compares.
type pipelineTrainRun struct {
	total     eventq.Time
	delivered map[uint64][2]eventq.Time // message ID -> (SerStart, Delivered)
	links     []noc.LinkDebugState
	multiHop  int
	fired     uint64
}

// runPipelineTrains replays a 1F1B pipeline whose stage boundaries are
// one ring hop (riding packet trains) and several hops (hardware-routed
// through those same train links) on a 4x2x1 torus packet backend.
func runPipelineTrains(t *testing.T, trains bool) pipelineTrainRun {
	t.Helper()
	def, cfg := pipelineFixture()
	cfg.StageNodes = []topology.Node{0, 1, 3, 6}
	cfg.Microbatches = 6
	cfg.BoundaryBytes = []int64{96 << 10, 160 << 10, 64 << 10}
	g, err := workload.Pipeline1F1B(def, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topology.NewTorus(4, 2, 1, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	sc := config.DefaultSystem()
	inst, err := system.NewInstance(tp, sc, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	inst.Net.SetFlowCollapse(trains)
	run := pipelineTrainRun{delivered: map[uint64][2]eventq.Time{}}
	inst.Net.OnSend = func(m *noc.Message) {
		if len(m.Path) > 1 {
			run.multiHop++
		}
		done := m.OnDelivered
		m.OnDelivered = func(m *noc.Message) {
			run.delivered[m.ID] = [2]eventq.Time{m.SerStart, m.Delivered}
			done(m)
		}
	}
	res, err := graph.Run(inst, g)
	if err != nil {
		t.Fatal(err)
	}
	run.total, run.links, run.fired = res.TotalCycles, inst.Net.DebugLinks(), inst.Eng.Fired()
	return run
}

// TestPipelineTrainsExact: on the serial engine, a pipeline of 1-hop and
// multi-hop SEND/RECV transfers completes every message at the same
// cycle, and leaves every link counter identical, with packet trains on
// as with them off.
func TestPipelineTrainsExact(t *testing.T) {
	off := runPipelineTrains(t, false)
	on := runPipelineTrains(t, true)
	if off.multiHop == 0 || off.multiHop == len(off.delivered) {
		t.Fatalf("%d of %d messages are multi-hop: want a mix of 1-hop and routed transfers", off.multiHop, len(off.delivered))
	}
	if on.total != off.total {
		t.Fatalf("trains finished at %d, per-packet at %d", on.total, off.total)
	}
	if len(on.delivered) != len(off.delivered) {
		t.Fatalf("trains delivered %d messages, per-packet %d", len(on.delivered), len(off.delivered))
	}
	for id, want := range off.delivered {
		if got := on.delivered[id]; got != want {
			t.Fatalf("message %d: trains (SerStart, Delivered) %v, per-packet %v", id, got, want)
		}
	}
	for i := range off.links {
		if on.links[i] != off.links[i] {
			t.Fatalf("link %d: trains %+v, per-packet %+v", i, on.links[i], off.links[i])
		}
	}
	if on.fired >= off.fired {
		t.Errorf("trains fired %d events, per-packet %d: want fewer", on.fired, off.fired)
	}
}
