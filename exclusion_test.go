package astrasim

import (
	"strings"
	"testing"

	"astrasim/internal/cli/clitest"
)

// TestExclusionMatrix runs every matrix cell as a facade graph run, and
// each SEND/RECV cell as a TrainPipeline run too: accepted cells
// complete, rejected ones fail with the table's reason spelled in option
// names.
func TestExclusionMatrix(t *testing.T) {
	def := Definition{Name: "matrix-pipe", Parallelism: DataParallel, Layers: []Layer{
		{Name: "s0", FwdCompute: 1000, IGCompute: 1000, WGCompute: 1000},
		{Name: "s1", FwdCompute: 1000, IGCompute: 1000, WGCompute: 1000},
	}}
	pipe := PipelineConfig{Boundaries: []int{1}, StageNodes: []NodeID{0, 1}, Microbatches: 2, BoundaryBytes: []int64{4096}}
	for _, c := range clitest.Cells() {
		p, err := NewPlatformFromSpec("1x4x1", WithBackend(c.Backend), WithIntraParallel(c.IntraParallel))
		if err != nil {
			t.Fatal(err)
		}
		if c.Faults {
			plan, err := ParseFaultPlan(strings.NewReader(clitest.PlanJSON))
			if err != nil {
				t.Fatal(err)
			}
			if err := p.SetFaultPlan(plan); err != nil {
				t.Fatal(err)
			}
		}
		g, err := ParseGraph("matrix", strings.NewReader(clitest.GraphJSON(c.SendRecv)))
		if err != nil {
			t.Fatal(err)
		}
		_, err = p.RunGraph(g)
		clitest.Check(t, c, err, c.Want(t, optionNames))
		if c.SendRecv {
			_, err = p.TrainPipeline(def, pipe, 1)
			clitest.Check(t, c, err, c.WantSends(t, optionNames, "TrainPipeline"))
		}
	}
}
