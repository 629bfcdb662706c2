package cli

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"astrasim/internal/config"
	"astrasim/internal/topology"
)

func TestParseHierSpec(t *testing.T) {
	opts := DefaultTopologyOptions()
	cases := []struct {
		spec string
		want []topology.DimSpec
	}{
		// Defaults: dimension 0 is intra-package with opts.LocalRings
		// lanes; later ring dims get 2 bidirectional rings, switch dims
		// opts.GlobalSwitches, FC dims 1 lane — all inter-package.
		{"sw8,fc4,ring32", []topology.DimSpec{
			{Kind: topology.KindSwitch, Size: 8, Lanes: 2, Class: topology.IntraPackage},
			{Kind: topology.KindFullyConnected, Size: 4, Lanes: 1, Class: topology.InterPackage},
			{Kind: topology.KindRing, Size: 32, Lanes: 2, Class: topology.InterPackage},
		}},
		{"ring4", []topology.DimSpec{
			{Kind: topology.KindRing, Size: 4, Lanes: 2, Class: topology.IntraPackage},
		}},
		// Explicit lanes and classes override every default.
		{"ring2x3@pkg,sw4x1@so", []topology.DimSpec{
			{Kind: topology.KindRing, Size: 2, Lanes: 3, Class: topology.InterPackage},
			{Kind: topology.KindSwitch, Size: 4, Lanes: 1, Class: topology.ScaleOutLink},
		}},
		// Whitespace around dimension tokens is tolerated.
		{" ring2 , fc3@local ", []topology.DimSpec{
			{Kind: topology.KindRing, Size: 2, Lanes: 2, Class: topology.IntraPackage},
			{Kind: topology.KindFullyConnected, Size: 3, Lanes: 1, Class: topology.IntraPackage},
		}},
	}
	for _, tc := range cases {
		got, err := ParseHierSpec(tc.spec, opts)
		if err != nil {
			t.Errorf("ParseHierSpec(%q): %v", tc.spec, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("ParseHierSpec(%q) = %v, want %v", tc.spec, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("ParseHierSpec(%q) dim %d = %+v, want %+v", tc.spec, i, got[i], tc.want[i])
			}
		}
	}
}

// Malformed hier: specs must be rejected with an error that names the
// offending token, so a typo in a 5-dimension composition is findable.
func TestParseHierSpecErrors(t *testing.T) {
	cases := []struct {
		spec  string
		token string // the offending token the error must name
	}{
		{"", "at least one dimension"},
		{"   ", "at least one dimension"},
		{"ring2,,sw4", "dimension 2 is empty"},
		{"mesh4", `"mesh4"`},
		{"torus2x2", `"torus2x2"`},
		{"ring", `bad size ""`},
		{"ring0", `bad size "0"`},
		{"sw-2", `bad size "-2"`},
		{"fc2.5", `bad size "2.5"`},
		{"ring2x0", `bad lane count "0"`},
		{"sw8xx2", `bad lane count "x2"`},
		{"ring4x", `bad lane count ""`},
		{"sw8@fabric", `bad link class "fabric"`},
		{"ring2@", `bad link class ""`},
		{"ring2,sw4@LOCAL", `bad link class "LOCAL"`},
	}
	for _, tc := range cases {
		_, err := ParseHierSpec(tc.spec, DefaultTopologyOptions())
		if err == nil {
			t.Errorf("ParseHierSpec(%q): accepted", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.token) {
			t.Errorf("ParseHierSpec(%q) error %q does not name %q", tc.spec, err, tc.token)
		}
	}
}

func TestParseRemoteMem(t *testing.T) {
	cases := []struct {
		in  string
		bw  float64
		lat uint64
	}{
		{"bw=50", 50, 0},
		{"bw=50,lat=600", 50, 600},
		{"lat=600,bw=0.5", 0.5, 600},
		{" bw=2.5 , lat=10 ", 2.5, 10},
	}
	for _, tc := range cases {
		bw, lat, err := ParseRemoteMem(tc.in)
		if err != nil || bw != tc.bw || lat != tc.lat {
			t.Errorf("ParseRemoteMem(%q) = %v, %v, %v; want %v, %v", tc.in, bw, lat, err, tc.bw, tc.lat)
		}
	}
}

func TestParseRemoteMemErrors(t *testing.T) {
	cases := []struct {
		in    string
		token string
	}{
		{"", `entry ""`},
		{"bw", `entry "bw"`},
		{"50", `entry "50"`},
		{"bw=0", `bad bandwidth "0"`},
		{"bw=-3", `bad bandwidth "-3"`},
		{"bw=fast", `bad bandwidth "fast"`},
		{"bw=5,lat=-1", `bad latency "-1"`},
		{"bw=5,lat=1.5", `bad latency "1.5"`},
		{"speed=9", `unknown key "speed"`},
		{"lat=600", "missing required bw"},
	}
	for _, tc := range cases {
		_, _, err := ParseRemoteMem(tc.in)
		if err == nil {
			t.Errorf("ParseRemoteMem(%q): accepted", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.token) {
			t.Errorf("ParseRemoteMem(%q) error %q does not name %q", tc.in, err, tc.token)
		}
	}
}

// BuildTopology("hier:...") must hand back the composition and name a bad
// dimension.
func TestBuildTopologyHier(t *testing.T) {
	cfg := config.DefaultSystem()
	topo, err := BuildTopology("hier:sw4,fc2,ring3", DefaultTopologyOptions(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Name() != "sw4+fc2+ring3 hier" {
		t.Fatalf("BuildTopology built %q, want the sw4+fc2+ring3 composition", topo.Name())
	}
	if topo.NumNPUs() != 24 {
		t.Fatalf("NumNPUs = %d, want 24", topo.NumNPUs())
	}
	if _, err := BuildTopology("hier:ring2,spine4", DefaultTopologyOptions(), &cfg); err == nil ||
		!strings.Contains(err.Error(), `"spine4"`) {
		t.Fatalf("bad dimension not named: %v", err)
	}
}

// structDigest hashes a topology's link table, dimension metadata, groups
// and ring traversals.
func structDigest(tp topology.Topology) uint64 {
	h := fnv.New64a()
	for _, l := range tp.Links() {
		fmt.Fprintf(h, "L%d:%d>%d/%d;", l.ID, l.Src, l.Dst, l.Class)
	}
	for _, d := range tp.Dims() {
		fmt.Fprintf(h, "D%d:%d/%d/%t/%t;", d.Dim, d.Size, d.Channels, d.Direct, d.Halving)
		for n := topology.Node(0); int(n) < tp.NumNPUs(); n++ {
			fmt.Fprintf(h, "G%v;", tp.Group(d.Dim, n))
			for c := 0; !d.Direct && c < d.Channels; c++ {
				r := tp.RingOf(d.Dim, n, c)
				fmt.Fprintf(h, "R%v%v;", r.Nodes, r.Links)
			}
		}
	}
	return h.Sum64()
}

// A topology named "... torus" is the one its spec builds: feeding the
// name back to BuildTopology without the suffix gives the same structure.
// All-ring compositions with two inter-package axes print as compositions,
// since "MxNxK" is the 3D torus, whose numbering differs, and so do ring
// dimensions with other than the default two rings: "hier:ring2x1,ring4"
// runs different cycles than "2x4", so it must not share its name.
func TestTorusNamesRoundTrip(t *testing.T) {
	opts := DefaultTopologyOptions()
	specs := []string{
		"4x4x4", "2x4x2", "1x8x1", "1x64", "4x16", "2x2x2x2", "1x4x4x2x2",
		"hier:ring2,ring4,ring2", "hier:ring1,ring8,ring8", "hier:ring2,ring4",
		"hier:ring6", "hier:ring2,ring2,ring2,ring2", "hier:ring2@pkg,ring4",
		"hier:ring2x1,ring4", "hier:ring2,ring4x3,ring2,ring2",
		"a2a:4x4", "sw:4x4", "so:2x2x2/3",
	}
	names := 0
	for _, spec := range specs {
		tp, err := BuildTopology(spec, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		shape, ok := strings.CutSuffix(tp.Name(), " torus")
		if !ok {
			continue
		}
		names++
		back, err := BuildTopology(shape, opts, nil)
		if err != nil {
			t.Errorf("%s is named %q, but %q does not build: %v", spec, tp.Name(), shape, err)
			continue
		}
		if structDigest(back) != structDigest(tp) {
			t.Errorf("%s is named %q, but %q builds a different topology", spec, tp.Name(), shape)
		}
	}
	if names < 7 {
		t.Errorf("only %d specs print as a torus", names)
	}
	for spec, want := range map[string]string{
		"hier:ring2,ring4,ring2": "ring2+ring4+ring2 hier",
		"hier:ring2x1,ring4":     "ring2x1+ring4 hier",
		"hier:ring2,ring4":       "2x4 torus",
	} {
		if got := mustBuild(t, spec).Name(); got != want {
			t.Errorf("%s is named %q, want %q", spec, got, want)
		}
	}
}

func mustBuild(t *testing.T, spec string) topology.Topology {
	t.Helper()
	tp, err := BuildTopology(spec, DefaultTopologyOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}
