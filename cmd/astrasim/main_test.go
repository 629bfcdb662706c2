package main

import (
	"strings"
	"testing"

	"astrasim/internal/config"
)

func TestParseArgs(t *testing.T) {
	tests := []struct {
		name    string
		args    []string
		wantErr string // substring of the expected error ("" = success)
	}{
		{name: "defaults", args: nil},
		{name: "model with plan", args: []string{"-model", "m.json", "-plan", "p.json"}},
		{name: "write-workload alone", args: []string{"-workload", "dlrm", "-write-workload", "out.txt"}},
		{name: "faults on the serial packet engine", args: []string{"-faults", "plan.json"}},
		{name: "model without plan", args: []string{"-model", "m.json"},
			wantErr: "-model and -plan must be given together"},
		{name: "plan without model", args: []string{"-plan", "p.json"},
			wantErr: "-model and -plan must be given together"},
		{name: "model with graph", args: []string{"-model", "m.json", "-plan", "p.json", "-graph", "g.json"},
			wantErr: "-model and -graph are mutually exclusive"},
		{name: "faults with fast backend", args: []string{"-faults", "plan.json", "-backend", "fast"},
			wantErr: "-faults requires the packet backend"},
		{name: "faults with intra-parallel", args: []string{"-faults", "plan.json", "-intra-parallel", "2"},
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
	if o.cfg.Backend != config.FastBackend || o.cfg.Algorithm != config.Baseline {
		t.Errorf("backend/algorithm = %v/%v", o.cfg.Backend, o.cfg.Algorithm)
	}
	if o.net.PackageLinkBandwidth != 50 || o.cfg.RemoteMemBandwidth != 8 || o.cfg.RemoteMemLatency != 100 {
		t.Errorf("network/remote memory = %+v / %v,%v", o.net, o.cfg.RemoteMemBandwidth, o.cfg.RemoteMemLatency)
	}
	if o.passes != 3 {
		t.Errorf("passes = %d, want 3", o.passes)
	}
}
