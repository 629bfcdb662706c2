package astrasim

import (
	"strings"
	"testing"

	"astrasim/internal/cli/clitest"
)

// TestExclusionMatrix runs every matrix cell as a facade graph run:
// accepted cells complete, rejected ones fail with the table's reason
// spelled in option names.
func TestExclusionMatrix(t *testing.T) {
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
	}
}
