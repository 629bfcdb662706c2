package cli_test

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"astrasim/internal/cli"
	"astrasim/internal/cli/clitest"
	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/faults"
)

// TestExclusionTable pins the table's verdict on every matrix cell. The
// surfaces' tests (cmd/*, internal/service, the facade) check they agree
// with Validate; this test checks Validate itself.
func TestExclusionTable(t *testing.T) {
	for _, c := range clitest.Cells() {
		want := ""
		switch {
		case c.Faults && c.Backend == config.FastBackend:
			want = "-faults requires the packet backend; the fast backend does not model faults"
		case c.Faults && c.IntraParallel > 0:
			want = "-faults and -intra-parallel are mutually exclusive"
		case c.SendRecv && c.IntraParallel > 0:
			want = `graph node "s": SEND/RECV needs point-to-point sends, which -intra-parallel does not support`
		}
		err := c.Want(t, cli.FlagNames)
		if (err == nil) != (want == "") || err != nil && !strings.Contains(err.Error(), want) {
			t.Errorf("%v: %v, want %q", c, err, want)
		}
	}
}

func TestValidateRows(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*cli.RunSpec)
		want string
	}{
		{"negative intra-parallel", func(s *cli.RunSpec) { s.System.IntraParallel = -1 }, "intra_parallel must be >= 0, got -1"},
		{"zero splits", func(s *cli.RunSpec) { s.System.PreferredSetSplits = 0 }, "set_splits must be >= 1, got 0"},
		{"negative remote bandwidth", func(s *cli.RunSpec) { s.System.RemoteMemBandwidth = -2 }, "remote_mem_bandwidth must be >= 0, got -2"},
		{"remote latency without bandwidth", func(s *cli.RunSpec) { s.System.RemoteMemLatency = 600 }, "remote_mem_latency needs remote_mem_bandwidth > 0"},
		{"defaults", func(*cli.RunSpec) {}, ""},
	} {
		s := cli.NewRunSpec("4x4x4")
		tc.edit(&s)
		err := s.Validate(cli.JSONNames)
		if (err == nil) != (tc.want == "") || err != nil && err.Error() != tc.want {
			t.Errorf("%s: %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestBindDefaultsAndValues: flag defaults are the spec's values at bind
// time, and parsed values land in the spec.
func TestBindDefaultsAndValues(t *testing.T) {
	s := cli.NewRunSpec("2x4x4")
	s.System.Algorithm = config.Enhanced
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s.Bind(fs, "switches")
	for name, want := range map[string]string{"topology": "2x4x4", "algorithm": "enhanced", "backend": "packet",
		"scheduling-policy": "LIFO", "switches": "2", "remote-mem": "", "faults": "", "audit": "false"} {
		if got := fs.Lookup(name).DefValue; got != want {
			t.Errorf("-%s default %q, want %q", name, got, want)
		}
	}
	plan := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(plan, []byte(clitest.PlanJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	err := fs.Parse([]string{"-algorithm", "baseline", "-scheduling-policy", "FIFO", "-switches", "7",
		"-remote-mem", "bw=8,lat=100", "-faults", plan, "-backend", "packet", "-audit", "-local-rings", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if s.System.Algorithm != config.Baseline || s.System.SchedulingPolicy != config.FIFO || s.Rings.GlobalSwitches != 7 ||
		s.Rings.LocalRings != 3 || s.System.RemoteMemBandwidth != 8 || s.System.RemoteMemLatency != 100 ||
		s.Faults == nil || !s.Audit {
		t.Errorf("parsed spec = %+v", s)
	}
	if err := fs.Parse([]string{"-remote-mem", "", "-faults", ""}); err != nil {
		t.Fatal(err)
	}
	if s.System.RemoteMemBandwidth != 0 || s.System.RemoteMemLatency != 0 || s.Faults != nil {
		t.Errorf("empty -remote-mem/-faults did not clear: %+v", s)
	}
	for _, bad := range [][]string{{"-algorithm", "magic"}, {"-backend", "warp"}, {"-remote-mem", "bw=0"}, {"-faults", "/nonexistent/plan.json"}} {
		if err := fs.Parse(bad); err == nil || !strings.Contains(err.Error(), bad[1]) {
			t.Errorf("%v: err = %v, want it to name %q", bad, err, bad[1])
		}
	}
}

// TestCanonicalDropsIntraParallel: the worker count changes how a run
// executes, not its result, so it is not part of the canonical form;
// every other setting is.
func TestCanonicalDropsIntraParallel(t *testing.T) {
	base := cli.NewRunSpec("4x4x4")
	canon := func(s cli.RunSpec) []byte {
		b, err := s.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	par := base
	par.System.IntraParallel = 4
	if !bytes.Equal(canon(base), canon(par)) {
		t.Error("IntraParallel changed the canonical form")
	}
	splits := base
	splits.System.PreferredSetSplits = 16
	rings := base
	rings.Rings.LocalRings = 1
	for _, s := range []cli.RunSpec{splits, rings} {
		if bytes.Equal(canon(base), canon(s)) {
			t.Errorf("%+v canonicalizes like the defaults", s)
		}
	}
}

// TestNewInstanceAppliesFaults: every instance NewInstance builds carries
// the spec's fault plan, and a spec without one builds clean instances.
func TestNewInstanceAppliesFaults(t *testing.T) {
	run := func(plan *faults.Plan) int64 {
		s := cli.NewRunSpec("2x2x2")
		s.Network.MaxPacketsPerMessage = 16
		s.Faults = plan
		topo, err := s.BuildTopology()
		if err != nil {
			t.Fatal(err)
		}
		inst, _, err := s.NewInstance(topo, nil)
		if err != nil {
			t.Fatal(err)
		}
		h, err := inst.RunCollective(collectives.AllReduce, 256<<10)
		if err != nil {
			t.Fatal(err)
		}
		return int64(h.Duration())
	}
	clean := run(nil)
	straggler := &faults.Plan{Stragglers: []faults.Straggler{{Node: 0, Factor: 8}}}
	if faulted := run(straggler); faulted <= clean {
		t.Errorf("straggler run (%d cycles) not slower than clean (%d cycles)", faulted, clean)
	}
	if again := run(nil); again != clean {
		t.Errorf("clean rerun = %d cycles, want %d", again, clean)
	}
}
