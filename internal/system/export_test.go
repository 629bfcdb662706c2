package system

import (
	"astrasim/internal/collectives"
	"astrasim/internal/eventq"
	"astrasim/internal/topology"
)

// SendStepForTest runs one step of the send path in isolation: a chunk of
// phase ph on channel ch of dimension dim sends its step-th messages from
// node n through s's network.
func SendStepForTest(s *System, dim topology.Dim, ph collectives.Phase, ch int, n topology.Node, step int) {
	c := &chunk{sys: s, coll: &Handle{phases: []collectives.Phase{ph}}, bytes: 1 << 20}
	c.setPhase(0)
	c.lane = s.laneFor(s.dimIndex(dim), ch, ph.Direct || ph.Halving)
	c.sendStep(n, step)
}

// EndpointDoneForTest charges one message, plus extra cycles, to node's
// endpoint (NMU) now and returns when the endpoint finishes it and the
// sub-cycle carry it leaves.
func EndpointDoneForTest(s *System, node topology.Node, extra eventq.Time) (eventq.Time, float64) {
	return s.endpointDone(node, extra), s.nmus[node].carry
}
