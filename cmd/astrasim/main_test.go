package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"astrasim/internal/cli"
	"astrasim/internal/cli/clitest"
	"astrasim/internal/config"
)

func TestParseArgs(t *testing.T) {
	plan := writeFile(t, "plan.json", `{"seed": 1, "stragglers": [{"node": 0, "factor": 2}]}`)
	tests := []struct {
		name    string
		args    []string
		wantErr string // substring of the expected error ("" = success)
	}{
		{name: "defaults", args: nil},
		{name: "model with plan", args: []string{"-model", "m.json", "-plan", "p.json"}},
		{name: "write-workload alone", args: []string{"-workload", "dlrm", "-write-workload", "out.txt"}},
		{name: "faults on the serial packet engine", args: []string{"-faults", plan}},
		{name: "model without plan", args: []string{"-model", "m.json"},
			wantErr: "-model and -plan must be given together"},
		{name: "plan without model", args: []string{"-plan", "p.json"},
			wantErr: "-model and -plan must be given together"},
		{name: "model with graph", args: []string{"-model", "m.json", "-plan", "p.json", "-graph", "g.json"},
			wantErr: "-model and -graph are mutually exclusive"},
		{name: "faults with fast backend", args: []string{"-faults", plan, "-backend", "fast"},
			wantErr: "-faults requires the packet backend"},
		{name: "faults with intra-parallel", args: []string{"-faults", plan, "-intra-parallel", "2"},
			wantErr: "-faults and -intra-parallel are mutually exclusive"},
		{name: "write-workload with graph", args: []string{"-graph", "g.json", "-write-workload", "out.txt"},
			wantErr: "-write-workload needs a layer-wise -workload"},
		{name: "write-workload with model", args: []string{"-model", "m.json", "-plan", "p.json", "-write-workload", "out.txt"},
			wantErr: "-write-workload needs a layer-wise -workload"},
		{name: "bad backend", args: []string{"-backend", "warp"}, wantErr: `"warp"`},
		{name: "bad algorithm", args: []string{"-algorithm", "magic"}, wantErr: "magic"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseArgs(tc.args)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("parseArgs(%q): %v", tc.args, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("parseArgs(%q) = %+v, %v; want error containing %q", tc.args, o, err, tc.wantErr)
			}
		})
	}
}

func TestParseArgsFillsConfig(t *testing.T) {
	o, err := parseArgs([]string{"-backend", "fast", "-algorithm", "baseline", "-package-link-bw", "50",
		"-remote-mem", "bw=8,lat=100", "-num-passes", "3"})
	if err != nil {
		t.Fatal(err)
	}
	sys, net := o.spec.System, o.spec.Network
	if sys.Backend != config.FastBackend || sys.Algorithm != config.Baseline {
		t.Errorf("backend/algorithm = %v/%v", sys.Backend, sys.Algorithm)
	}
	if net.PackageLinkBandwidth != 50 || sys.RemoteMemBandwidth != 8 || sys.RemoteMemLatency != 100 {
		t.Errorf("network/remote memory = %+v / %v,%v", net, sys.RemoteMemBandwidth, sys.RemoteMemLatency)
	}
	if o.passes != 3 {
		t.Errorf("passes = %d, want 3", o.passes)
	}
}

// writeFile writes body to a fresh temporary file and returns its path:
// -faults reads its plan while the flags parse.
func writeFile(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDocExamplesParse(t *testing.T) {
	clitest.DocExamples(t, "astrasim", func(args []string) error {
		_, err := parseArgs(args)
		return err
	})
}

func TestFlagSurface(t *testing.T) {
	fs, _ := newFlags()
	clitest.FlagSurface(t, fs)
}

// TestExclusionMatrix drives every matrix cell through parseArgs and,
// when the flags parse, through buildGraph's graph check.
func TestExclusionMatrix(t *testing.T) {
	plan := writeFile(t, "plan.json", clitest.PlanJSON)
	graphs := map[bool]string{
		false: writeFile(t, "allreduce.json", clitest.GraphJSON(false)),
		true:  writeFile(t, "sendrecv.json", clitest.GraphJSON(true)),
	}
	for _, c := range clitest.Cells() {
		o, err := parseArgs(append(c.Args(plan), "-topology", "1x4x1", "-graph", graphs[c.SendRecv]))
		if err == nil {
			_, _, err = buildGraph(o)
		}
		clitest.Check(t, c, err, c.Want(t, cli.FlagNames))
	}
}

// -workload resolves names in the built-in table the daemon's
// workload.model reads, so vgg16 and bertlarge are models, not file paths.
func TestWorkloadBuiltins(t *testing.T) {
	for _, tc := range []struct{ name, want string }{
		{"vgg16", "VGG-16"},
		{"bertlarge", "BERT-Large"},
		{"resnet-50", "ResNet-50"},
		{"Transformer", "Transformer"},
	} {
		def, err := loadWorkload(tc.name, 4, 16, 1)
		if err != nil {
			t.Errorf("-workload %s: %v", tc.name, err)
			continue
		}
		if def.Name != tc.want {
			t.Errorf("-workload %s built %q, want %q", tc.name, def.Name, tc.want)
		}
	}
	if _, err := loadWorkload("vgg19", 4, 16, 1); err == nil || !strings.Contains(err.Error(), "not builtin") {
		t.Errorf("-workload vgg19: err = %v, want the not-builtin error", err)
	}
}
