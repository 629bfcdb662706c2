package main

import (
	"os"
	"path/filepath"
	"testing"

	"astrasim/internal/cli"
	"astrasim/internal/cli/clitest"
)

func TestDocExamplesParse(t *testing.T) {
	clitest.DocExamples(t, "sweep", func(args []string) error {
		_, err := parseArgs(args)
		return err
	})
}

func TestFlagSurface(t *testing.T) {
	fs, _ := newFlags()
	clitest.FlagSurface(t, fs)
}

// TestExclusionMatrix drives every matrix cell the flags can express
// through parseArgs. The SEND/RECV cells depend on a figure's graph, not
// on the flags: extgraph and extparallel reject them when their points
// are validated (TestSpecRejections in internal/experiments).
func TestExclusionMatrix(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(plan, []byte(clitest.PlanJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range clitest.Cells() {
		if c.SendRecv {
			continue
		}
		_, err := parseArgs(c.Args(plan))
		clitest.Check(t, c, err, c.Want(t, cli.FlagNames))
	}
}
