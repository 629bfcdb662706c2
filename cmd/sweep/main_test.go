package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"astrasim/internal/cli"
	"astrasim/internal/cli/clitest"
	"astrasim/internal/experiments"
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
// through parseArgs. The SEND/RECV cells depend on the figures selected,
// not on the flags: extgraph and extparallel reject them before the sweep
// starts (TestIncompatibleStudyRejectedUpFront, and TestFigureChecks in
// internal/experiments).
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

// TestMain runs the command itself when the test binary is re-executed
// with SWEEP_MAIN=1, so tests can check its exit status and output files.
func TestMain(m *testing.M) {
	if os.Getenv("SWEEP_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A sweep whose spec a selected study cannot run exits 1 naming the study
// and the exclusion table's reason before any point runs: no CSV is
// written, not even for the figures that precede the study.
func TestIncompatibleStudyRejectedUpFront(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(plan, []byte(clitest.PlanJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-faults", plan}, "extintrapar: -faults and -intra-parallel are mutually exclusive"},
		{[]string{"-intra-parallel", "2"}, "extgraph: the study's SEND/RECV pipeline needs point-to-point sends, which -intra-parallel does not support"},
	} {
		out := filepath.Join(t.TempDir(), "out")
		args := append([]string{"-quick", "-ext", "-parallel", "1", "-out", out}, tc.args...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "SWEEP_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("sweep %v: %v, want exit status 1", tc.args, err)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("sweep %v: stderr %q, want %q", tc.args, stderr.String(), tc.want)
		}
		if csvs, _ := filepath.Glob(filepath.Join(out, "*.csv")); len(csvs) > 0 {
			t.Errorf("sweep %v wrote %d CSVs before rejecting the spec", tc.args, len(csvs))
		}
	}
}

// -fig's unknown-figure error lists every registered ID, and a prefix
// selects every study it starts.
func TestSelectFigures(t *testing.T) {
	_, err := selectFigures("fig99", true)
	if err == nil {
		t.Fatal("-fig fig99 selected figures")
	}
	for _, f := range append(experiments.Figures(), experiments.Extensions()...) {
		if !strings.Contains(err.Error(), f.ID) {
			t.Errorf("unknown-figure error %q does not list %s", err, f.ID)
		}
	}
	figs, err := selectFigures("ext", false)
	if err != nil || len(figs) != len(experiments.Extensions()) {
		t.Errorf("-fig ext selected %d figures (err %v), want the %d extension studies", len(figs), err, len(experiments.Extensions()))
	}
}
