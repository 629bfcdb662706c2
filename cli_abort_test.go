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

// TestCLIsExitOnLostMessage: a message lost past its retry budget ends
// each command-line tool with exit status 1 and the lost-message error
// on stderr, not with a panic and its goroutine dump.
func TestCLIsExitOnLostMessage(t *testing.T) {
	dir := t.TempDir()
	plan := filepath.Join(dir, "heavy.json")
	if err := os.WriteFile(plan, []byte(heavyLossPlan), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tool string
		args []string
	}{
		{"collectives", []string{"-topology", "4x4x4", "-op", "allreduce", "-size", "1MB", "-faults", plan}},
		{"astrasim", []string{"-topology", "4x4x4", "-workload", "dlrm", "-batch", "8", "-num-passes", "1", "-faults", plan}},
		{"sweep", []string{"-quick", "-fig", "fig09", "-parallel", "1", "-faults", plan, "-out", filepath.Join(dir, "sweep-out")}},
	} {
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
			if msg := stderr.String(); !strings.Contains(msg, "lost after") || strings.Contains(msg, "goroutine") {
				t.Fatalf("%s stderr does not report the lost message cleanly:\n%s", c.tool, msg)
			}
		})
	}
}
