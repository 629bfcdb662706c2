package cli

import (
	"errors"
	"testing"

	"astrasim/internal/config"
	"astrasim/internal/topology"
)

func TestParseSize(t *testing.T) {
	cases := map[string]int64{
		"512":   512,
		"512B":  512,
		"64KB":  64 << 10,
		"4MB":   4 << 20,
		"1GB":   1 << 30,
		" 2MB ": 2 << 20,
	}
	for in, want := range cases {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "-4MB", "x", "0", "4TB?"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q): expected error", bad)
		}
	}
}

func TestParseDims(t *testing.T) {
	d, err := ParseDims("2x4x4")
	if err != nil || len(d) != 3 || d[0] != 2 || d[1] != 4 || d[2] != 4 {
		t.Errorf("ParseDims = %v, %v", d, err)
	}
	if _, err := ParseDims("2x0x4"); err == nil {
		t.Error("expected error for zero dimension")
	}
	if _, err := ParseDims("2xx4"); err == nil {
		t.Error("expected error for empty dimension")
	}
}

func TestBuildTopologyTorus(t *testing.T) {
	cfg := config.DefaultSystem()
	topo, err := BuildTopology("2x4x4", DefaultTopologyOptions(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNPUs() != 32 {
		t.Errorf("topo = %s (%d NPUs), want 32", topo.Name(), topo.NumNPUs())
	}
}

func TestBuildTopologyA2A(t *testing.T) {
	cfg := config.DefaultSystem()
	opts := DefaultTopologyOptions()
	opts.GlobalSwitches = 7
	topo, err := BuildTopology("a2a:1x8", opts, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Name() != "1x8 alltoall" || topo.NumNPUs() != 8 || topo.NumNodes() != 8+7 {
		t.Errorf("topo = %s (%d nodes), want 8 NPUs and 7 switches", topo.Name(), topo.NumNodes())
	}
}

func TestBuildTopologyND(t *testing.T) {
	cfg := config.DefaultSystem()
	topo, err := BuildTopology("2x2x2x2", DefaultTopologyOptions(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNPUs() != 16 {
		t.Errorf("topo = %s (%d NPUs), want 16", topo.Name(), topo.NumNPUs())
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("ND config invalid: %v", err)
	}
	if topo.Name() != "2x2x2x2 torus" {
		t.Errorf("Name = %q, want %q", topo.Name(), "2x2x2x2 torus")
	}
	// A 2D spec (local x one axis) is an N-D torus too.
	topo, err = BuildTopology("4x16", DefaultTopologyOptions(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNPUs() != 64 {
		t.Errorf("4x16 NPUs = %d, want 64", topo.NumNPUs())
	}
}

// A shape whose NPU count overflows int is an error naming
// topology.ErrNPUOverflow on every family, never a wrapped count, a
// makeslice panic or an out-of-memory kill.
func TestBuildTopologyRejectsNPUOverflow(t *testing.T) {
	for _, spec := range []string{
		"hier:ring100000,ring100000,ring100000,ring100000",
		"hier:sw100000,fc100000,ring100000,ring100000",
		"100000x100000x100000x100000",
		"65536x65536x65536x65536x65536",
		"4294967296x4294967296x2",
		"a2a:4294967296x4294967296",
		"sw:4294967296x4294967296",
		"so:2x1x1/9223372036854775807",
	} {
		_, err := BuildTopology(spec, DefaultTopologyOptions(), nil)
		if !errors.Is(err, topology.ErrNPUOverflow) {
			t.Errorf("BuildTopology(%q): err = %v, want topology.ErrNPUOverflow", spec, err)
		}
	}
}

func TestBuildTopologyErrors(t *testing.T) {
	cfg := config.DefaultSystem()
	for _, bad := range []string{"", "4", "a2a:4", "a2a:2x3x4", "axb"} {
		if _, err := BuildTopology(bad, DefaultTopologyOptions(), &cfg); err == nil {
			t.Errorf("BuildTopology(%q): expected error", bad)
		}
	}
}

func TestBuildTopologyScaleOut(t *testing.T) {
	cfg := config.DefaultSystem()
	topo, err := BuildTopology("so:2x2x2/4", DefaultTopologyOptions(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNPUs() != 32 {
		t.Errorf("NumNPUs = %d, want 32", topo.NumNPUs())
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("config invalid: %v", err)
	}
	for _, bad := range []string{"so:2x2x2", "so:2x2/4", "so:2x2x2/1", "so:2x2x2/x"} {
		if _, err := BuildTopology(bad, DefaultTopologyOptions(), &cfg); err == nil {
			t.Errorf("BuildTopology(%q): expected error", bad)
		}
	}
}

func TestBuildTopologySwitched(t *testing.T) {
	cfg := config.DefaultSystem()
	topo, err := BuildTopology("sw:4x4", DefaultTopologyOptions(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNPUs() != 16 {
		t.Errorf("NumNPUs = %d, want 16", topo.NumNPUs())
	}
	if _, err := BuildTopology("sw:4x4x4", DefaultTopologyOptions(), &cfg); err == nil {
		t.Error("expected error for 3-dim switched spec")
	}
}
