package astrasim

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// heavyLossPlan drops half the inter-package packets and gives up on a
// message after two retransmissions, so some message is lost for good.
const heavyLossPlan = `{"seed":1,"drops":[{"class":"inter","probability":0.5}],"retry":{"timeout":1000,"backoff":2,"max_retries":2}}`

// strayStragglerPlan slows node 99, outside every topology the tests
// below run on.
const strayStragglerPlan = `{"seed":7,"stragglers":[{"node":99,"factor":2}]}`

// cliRun is one command-line tool invocation expected to fail.
type cliRun struct {
	tool string
	args []string
}

// expectCLIExit1 builds each tool into dir, runs it and requires exit
// status 1 with stderr containing want and no goroutine dump.
func expectCLIExit1(t *testing.T, dir, want string, runs []cliRun) {
	for _, c := range runs {
		t.Run(c.tool, func(t *testing.T) {
			bin := filepath.Join(dir, c.tool)
			if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+c.tool).CombinedOutput(); err != nil {
				t.Fatalf("go build: %v\n%s", err, out)
			}
			var stderr bytes.Buffer
			cmd := exec.Command(bin, c.args...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("%s exited with %v, want exit status 1; stderr:\n%s", c.tool, err, stderr.String())
			}
			if msg := stderr.String(); !strings.Contains(msg, want) || strings.Contains(msg, "goroutine") {
				t.Fatalf("%s stderr does not report %q cleanly:\n%s", c.tool, want, msg)
			}
		})
	}
}

// writePlan writes a fault plan into dir and returns its path.
func writePlan(t *testing.T, dir, name, plan string) string {
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCLIsExitOnLostMessage: a message lost past its retry budget ends
// each command-line tool with exit status 1 and the lost-message error
// on stderr, not with a panic and its goroutine dump.
func TestCLIsExitOnLostMessage(t *testing.T) {
	dir := t.TempDir()
	plan := writePlan(t, dir, "heavy.json", heavyLossPlan)
	expectCLIExit1(t, dir, "lost after", []cliRun{
		{"collectives", []string{"-topology", "4x4x4", "-op", "allreduce", "-size", "1MB", "-faults", plan}},
		{"astrasim", []string{"-topology", "4x4x4", "-workload", "dlrm", "-batch", "8", "-num-passes", "1", "-faults", plan}},
		{"sweep", []string{"-quick", "-fig", "fig09", "-parallel", "1", "-faults", plan, "-out", filepath.Join(dir, "sweep-out")}},
	})
}

// TestCLIsRejectOutOfRangeStraggler: the two tools that run one topology
// reject a straggler node outside it, as the daemon does, instead of
// skipping it (cli.RunSpec.ValidateNPUs). cmd/sweep stays lenient: one
// plan drives every topology of a figure.
func TestCLIsRejectOutOfRangeStraggler(t *testing.T) {
	dir := t.TempDir()
	plan := writePlan(t, dir, "stray.json", strayStragglerPlan)
	expectCLIExit1(t, dir, "-faults: straggler node 99 out of range (4 NPUs)", []cliRun{
		{"collectives", []string{"-topology", "1x4x1", "-op", "allreduce", "-size", "64KB", "-faults", plan}},
		{"collectives", []string{"-topology", "1x4x1", "-op", "allreduce", "-size", "64KB", "-faults", plan, "-oracle"}},
		{"astrasim", []string{"-topology", "1x4x1", "-workload", "dlrm", "-batch", "8", "-num-passes", "1", "-faults", plan}},
	})
}
