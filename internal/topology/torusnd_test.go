package topology_test

// N-dimensional hierarchical tori, built the way every surface builds
// them: from an "MxA1x...xAd" spec through cli.BuildTopology, which
// composes all-ring Hierarchical dimensions. A 3-axis N-D torus has no
// such spec ("MxNxK" is the 3D torus), so it is spelled as the equivalent
// all-ring "hier:" composition.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"astrasim/internal/cli"
	"astrasim/internal/topology"
)

func mustND(t *testing.T, sizes []int) topology.Topology {
	t.Helper()
	parts := make([]string, len(sizes))
	for i, s := range sizes {
		parts[i] = fmt.Sprint(s)
	}
	spec := strings.Join(parts, "x")
	if len(sizes) == 3 {
		spec = "hier:ring" + strings.Join(parts, ",ring")
	}
	nd, err := cli.BuildTopology(spec, cli.DefaultTopologyOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(parts, "x") + " torus"
	if len(sizes) == 3 {
		// "MxNxK torus" names the 3D torus, not this composition.
		want = "ring" + strings.Join(parts, "+ring") + " hier"
	}
	if nd.Name() != want {
		t.Fatalf("%s built %q, want %q", spec, nd.Name(), want)
	}
	return nd
}

func TestTorusNDBasics(t *testing.T) {
	nd := mustND(t, []int{2, 2, 2, 2}) // 4D: 16 NPUs
	if nd.NumNPUs() != 16 || nd.NumNodes() != 16 {
		t.Errorf("NumNPUs/NumNodes = %d/%d, want 16/16", nd.NumNPUs(), nd.NumNodes())
	}
	dims := nd.Dims()
	if len(dims) != 4 {
		t.Fatalf("dims = %d, want 4", len(dims))
	}
	if dims[0].Dim != topology.DimLocal || dims[0].Channels != 2 {
		t.Errorf("dims[0] = %+v", dims[0])
	}
	for i := 1; i < 4; i++ {
		if dims[i].Channels != 4 { // 2 bidirectional rings
			t.Errorf("dims[%d].Channels = %d, want 4", i, dims[i].Channels)
		}
		if dims[i].Size != 2 || dims[i].Direct || dims[i].Halving {
			t.Errorf("dims[%d] = %+v, want a size-2 ring dimension", i, dims[i])
		}
	}
	if dims[3].Dim.String() != "axis3" {
		t.Errorf("4th dimension named %q, want axis3", dims[3].Dim.String())
	}
}

func TestTorusNDGroupsPartition(t *testing.T) {
	nd := mustND(t, []int{2, 3, 2, 2})
	for _, d := range nd.Dims() {
		counts := make(map[topology.Node]int)
		for n := 0; n < nd.NumNPUs(); n++ {
			g := nd.Group(d.Dim, topology.Node(n))
			if len(g) != d.Size {
				t.Fatalf("dim %v: group size %d, want %d", d.Dim, len(g), d.Size)
			}
			found := false
			for _, m := range g {
				if m == topology.Node(n) {
					found = true
				}
				counts[m]++
			}
			if !found {
				t.Fatalf("dim %v: node %d not in its own group", d.Dim, n)
			}
		}
		// Each node appears in exactly Size groups' worth of listings
		// (once per member's Group call).
		for n, c := range counts {
			if c != d.Size {
				t.Fatalf("dim %v: node %d listed %d times, want %d", d.Dim, n, c, d.Size)
			}
		}
	}
}

func TestTorusNDRingsCycle(t *testing.T) {
	nd := mustND(t, []int{2, 2, 3, 2})
	for _, d := range nd.Dims() {
		for c := 0; c < d.Channels; c++ {
			r := nd.RingOf(d.Dim, 5, c)
			if r.Size() != d.Size {
				t.Fatalf("dim %v ch %d: ring size %d, want %d", d.Dim, c, r.Size(), d.Size)
			}
			n := r.Nodes[0]
			for i := 0; i < r.Size(); i++ {
				n = r.Next(n)
			}
			if n != r.Nodes[0] {
				t.Fatalf("dim %v ch %d: not a cycle", d.Dim, c)
			}
		}
	}
}

// An N-D torus over [m, k, n] must expose the same dimension sizes and
// link counts as the 3D torus NewTorus(m, n, k).
func TestTorusNDMatches3D(t *testing.T) {
	nd := mustND(t, []int{2, 3, 4})
	td, err := topology.NewTorus(2, 4, 3, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	if nd.NumNPUs() != td.NumNPUs() {
		t.Fatalf("NPUs %d vs %d", nd.NumNPUs(), td.NumNPUs())
	}
	if len(nd.Links()) != len(td.Links()) {
		t.Errorf("links %d vs %d", len(nd.Links()), len(td.Links()))
	}
	ndd, tdd := nd.Dims(), td.Dims()
	for i := range ndd {
		if ndd[i].Size != tdd[i].Size || ndd[i].Channels != tdd[i].Channels {
			t.Errorf("dim %d: %+v vs %+v", i, ndd[i], tdd[i])
		}
	}
}

func TestTorusNDLinkClasses(t *testing.T) {
	nd := mustND(t, []int{2, 2, 2})
	var intra, inter int
	for _, l := range nd.Links() {
		if l.Class == topology.IntraPackage {
			intra++
		} else {
			inter++
		}
	}
	// Local: 4 packages x 2 rings x 2 links = 16. Inter: 2 axes x 4
	// groups x 4 channels x 2 links = 64.
	if intra != 16 || inter != 64 {
		t.Errorf("intra/inter = %d/%d, want 16/64", intra, inter)
	}
}

func TestTorusNDPathLinks(t *testing.T) {
	nd := mustND(t, []int{2, 2, 2, 2})
	d := nd.Dims()[3].Dim
	r := nd.RingOf(d, 0, 0)
	next := r.Next(0)
	path := nd.PathLinks(d, 0, 0, next)
	if len(path) != 1 {
		t.Fatalf("path len %d, want 1", len(path))
	}
	spec := nd.Links()[path[0]]
	if spec.Src != 0 || spec.Dst != next {
		t.Errorf("path link %+v, want 0 -> %d", spec, next)
	}
}

func TestTorusNDWithUnitAxes(t *testing.T) {
	nd := mustND(t, []int{1, 4, 1, 1})
	if nd.NumNPUs() != 4 {
		t.Fatalf("1x4x1x1 N-D torus has %d NPUs", nd.NumNPUs())
	}
	seen := map[topology.Node]bool{}
	for i := 0; i < nd.NumNPUs(); i++ {
		for _, d := range nd.Dims() {
			g := nd.Group(d.Dim, topology.Node(i))
			if d.Size == 1 && len(g) != 1 {
				t.Fatalf("unit axis %v group = %v", d.Dim, g)
			}
			for _, n := range g {
				seen[n] = true
			}
		}
	}
	if len(seen) != nd.NumNPUs() {
		t.Fatalf("groups cover %d of %d nodes", len(seen), nd.NumNPUs())
	}

	all1 := mustND(t, []int{1, 1})
	if all1.NumNPUs() != 1 || len(all1.Links()) != 0 {
		t.Fatalf("1x1 N-D torus: %d NPUs, %d links", all1.NumNPUs(), len(all1.Links()))
	}
}

func TestTorusNDErrors(t *testing.T) {
	opts := cli.DefaultTopologyOptions()
	for _, spec := range []string{"8", "2x0x2x2", "2x-1"} {
		if _, err := cli.BuildTopology(spec, opts, nil); err == nil {
			t.Errorf("%q: expected an error", spec)
		}
	}
	zero := opts
	zero.LocalRings = 0
	if _, err := cli.BuildTopology("2x2", zero, nil); err == nil {
		t.Error("expected an error for zero local rings")
	}
	zero = opts
	zero.HorizontalRings = 0
	if _, err := cli.BuildTopology("2x2x2x2", zero, nil); err == nil {
		t.Error("expected an error for zero horizontal rings")
	}
	if _, err := cli.BuildTopology("65536x65536x65536x65536x65536", opts, nil); !errors.Is(err, topology.ErrNPUOverflow) {
		t.Errorf("overflowing shape: err = %v, want topology.ErrNPUOverflow", err)
	}
}

func TestAxisDim(t *testing.T) {
	if topology.AxisDim(0) != topology.DimVertical || topology.AxisDim(1) != topology.DimHorizontal {
		t.Error("first two axes must reuse vertical/horizontal")
	}
	if topology.AxisDim(2) == topology.AxisDim(3) {
		t.Error("higher axes must get distinct identifiers")
	}
	if topology.AxisDim(2).String() != "axis3" {
		t.Errorf("AxisDim(2) = %q, want axis3", topology.AxisDim(2).String())
	}
}
