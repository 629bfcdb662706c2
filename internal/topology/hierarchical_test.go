package topology

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
)

// topoDigest is an FNV-64a hash of a topology's name and node counts,
// its link graph (every link's ID, endpoints and class, in order) and
// dimension metadata, plus every NPU's group on each dimension, its ring
// traversal (nodes and links) and ring-hop path per channel on ring
// dimensions, and its path to every group peer on channels 0 through
// Channels on direct dimensions.
func topoDigest(tp Topology) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "N%s/%d/%d;", tp.Name(), tp.NumNPUs(), tp.NumNodes())
	for _, l := range tp.Links() {
		fmt.Fprintf(h, "L%d:%d>%d/%d;", l.ID, l.Src, l.Dst, l.Class)
	}
	for _, d := range tp.Dims() {
		fmt.Fprintf(h, "D%d:%d/%d/%t/%t;", d.Dim, d.Size, d.Channels, d.Direct, d.Halving)
		for n := Node(0); int(n) < tp.NumNPUs(); n++ {
			g := tp.Group(d.Dim, n)
			fmt.Fprintf(h, "G%v;", g)
			if d.Direct {
				for _, peer := range g {
					if peer == n {
						continue
					}
					for c := 0; c <= d.Channels; c++ {
						fmt.Fprintf(h, "P%d>%d/%d%v;", n, peer, c, tp.PathLinks(d.Dim, c, n, peer))
					}
				}
				continue
			}
			if d.Size <= 1 {
				continue
			}
			for c := 0; c < d.Channels; c++ {
				r := tp.RingOf(d.Dim, n, c)
				fmt.Fprintf(h, "R%v%v;", r.Nodes, r.Links)
				fmt.Fprintf(h, "H%v;", tp.PathLinks(d.Dim, c, n, r.Next(n)))
			}
		}
	}
	return h.Sum64()
}

// TestTopologyFamilyDigests pins the structure of every topology family:
// names, node counts, link tables, dimension metadata, groups, rings and
// the paths of every ring hop and direct-dimension pair. Fault plans name
// links by ID and schedules are compiled over groups and rings, so any
// rebuild of these families must reproduce each digest exactly. The two
// compositions with a one-ring dimension were re-recorded when names
// began to carry non-default ring counts ("ring2x1+..."); with the name
// left out of the digest, both hash as before.
func TestTopologyFamilyDigests(t *testing.T) {
	torus := func(m, n, k int, cfg TorusConfig) func() (Topology, error) {
		return func() (Topology, error) { return NewTorus(m, n, k, cfg) }
	}
	a2a := func(m, n int, cfg A2AConfig) func() (Topology, error) {
		return func() (Topology, error) { return NewA2A(m, n, cfg) }
	}
	switched := func(m, n int, cfg SwitchedConfig) func() (Topology, error) {
		return func() (Topology, error) { return NewSwitched(m, n, cfg) }
	}
	hier := func(specs ...DimSpec) func() (Topology, error) {
		return func() (Topology, error) { return NewHierarchical(specs) }
	}
	scaleOut := func(pod func() (Topology, error), pods, spines int) func() (Topology, error) {
		return func() (Topology, error) {
			p, err := pod()
			if err != nil {
				return nil, err
			}
			return NewScaleOut(p, pods, spines)
		}
	}
	cases := []struct {
		name   string
		build  func() (Topology, error)
		digest uint64
	}{
		{"torus 4x4x4", torus(4, 4, 4, DefaultTorusConfig()), 0xf467ccda9db498a0},
		{"torus 2x8x4", torus(2, 8, 4, DefaultTorusConfig()), 0x008c30b582c2ea86},
		{"torus 1x8x1", torus(1, 8, 1, DefaultTorusConfig()), 0xabc28daefaa0f0dc},
		{"torus 2x4x3 rings 3,1,2", torus(2, 4, 3, TorusConfig{LocalRings: 3, HorizontalRings: 1, VerticalRings: 2}), 0xe858c7fbe6fbe1f7},
		{"a2a 1x8 7 switches", a2a(1, 8, A2AConfig{LocalRings: 2, GlobalSwitches: 7}), 0xeef448562f84abee},
		{"a2a 4x8", a2a(4, 8, DefaultA2AConfig()), 0x817243f69c0400e7},
		{"a2a 3x5", a2a(3, 5, DefaultA2AConfig()), 0x5d024811eb096b9a},
		{"switched 4x4", switched(4, 4, DefaultSwitchedConfig()), 0xf47a92757b165804},
		{"switched 8x3 switches 2,3", switched(8, 3, SwitchedConfig{LocalSwitches: 2, GlobalSwitches: 3}), 0xfa230dd2cef09ff7},
		{"hier sw8,fc4,ring4", hier(
			DimSpec{Kind: KindSwitch, Size: 8, Lanes: 2, Class: IntraPackage},
			DimSpec{Kind: KindFullyConnected, Size: 4, Lanes: 1, Class: InterPackage},
			DimSpec{Kind: KindRing, Size: 4, Lanes: 2, Class: InterPackage}), 0x8c76a4a995a4bbc2},
		{"hier ring2,sw4,sw1,fc3@so", hier(
			DimSpec{Kind: KindRing, Size: 2, Lanes: 1, Class: IntraPackage},
			DimSpec{Kind: KindSwitch, Size: 4, Lanes: 2, Class: InterPackage},
			DimSpec{Kind: KindSwitch, Size: 1, Lanes: 2, Class: InterPackage},
			DimSpec{Kind: KindFullyConnected, Size: 3, Lanes: 2, Class: ScaleOutLink}), 0x6379e4949c333312},
		{"so 3 pods of 2x2x2 torus", scaleOut(torus(2, 2, 2, DefaultTorusConfig()), 3, 2), 0x1360271408ddb786},
		{"so 3 pods of ring2,fc3", scaleOut(hier(
			DimSpec{Kind: KindRing, Size: 2, Lanes: 1, Class: IntraPackage},
			DimSpec{Kind: KindFullyConnected, Size: 3, Lanes: 2, Class: InterPackage}), 3, 1), 0x5ff47f692187fb5f},
	}
	for _, tc := range cases {
		tp, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := topoDigest(tp); got != tc.digest {
			t.Errorf("%s: digest %#016x, want %#016x", tc.name, got, tc.digest)
		}
	}
}

// An all-ring Hierarchical composition with the default link classes is
// the N-dimensional hierarchical torus, and must stay structurally
// identical to the standalone N-D torus type it replaced: same links in
// the same order, same dimension metadata, same groups and ring
// traversals. Digests of those parts were first recorded from that type
// for the four ring-count cases and the ext4d study's five shapes (2 rings
// on every axis); the values below are re-recorded from the same
// structure after topoDigest grew to cover names and paths. This is the
// foundation of the byte-identical simulation results
// across the replacement: once the link graphs and ring traversals
// coincide, every schedule compiled over them coincides too.
func TestHierarchicalAllRingEqualsTorusND(t *testing.T) {
	cases := []struct {
		sizes  []int
		rings  []int
		digest uint64
	}{
		{[]int{2, 4, 2}, []int{2, 2, 2}, 0x268a98d1963145e5},
		{[]int{2, 2, 2, 2}, []int{2, 2, 2, 2}, 0xd82dd1e154960268},
		// Named "ring4x3+ring3x1 hier" since names carry non-default
		// ring counts; with the old name "4x3 torus" the digest is the
		// recorded 0x2749553d74b292db.
		{[]int{4, 3}, []int{3, 1}, 0xc171ae822930d181},
		{[]int{1, 8}, []int{2, 2}, 0xd8f29e56e618bd60},
		{[]int{1, 64}, nil, 0x802cac7412f1406a},
		{[]int{1, 8, 8}, nil, 0x49dac832191b567b},
		{[]int{1, 4, 4, 4}, nil, 0x56a3fe96b5cba74c},
		{[]int{1, 4, 4, 2, 2}, nil, 0x7322601974cb5cdb},
		{[]int{1, 2, 2, 2, 2, 4}, nil, 0xf89f02766a7dc9e9},
	}
	for _, tc := range cases {
		specs := make([]DimSpec, len(tc.sizes))
		for i, s := range tc.sizes {
			lanes := 2
			if tc.rings != nil {
				lanes = tc.rings[i]
			}
			specs[i] = DimSpec{Kind: KindRing, Size: s, Lanes: lanes, Class: DefaultDimClass(i)}
		}
		h, err := NewHierarchical(specs)
		if err != nil {
			t.Fatal(err)
		}
		if got := topoDigest(h); got != tc.digest {
			t.Errorf("sizes %v rings %v: digest %#016x, want %#016x", tc.sizes, tc.rings, got, tc.digest)
		}
		for _, d := range h.Dims() {
			for n := Node(0); int(n) < h.NumNPUs() && d.Size > 1; n++ {
				for c := 0; c < d.Channels; c++ {
					next := h.RingOf(d.Dim, n, c).Next(n)
					path := h.PathLinks(d.Dim, c, n, next)
					if l := h.Links()[path[0]]; len(path) != 1 || l.Src != n || l.Dst != next {
						t.Fatalf("sizes %v dim %v chan %d: hop %d->%d takes %v", tc.sizes, d.Dim, c, n, next, path)
					}
				}
			}
		}
	}
}

// Degenerate compositions must build and stay self-consistent: unit
// dimensions contribute no links, a single dimension is a flat group,
// switch-only compositions allocate switch nodes above the NPU range,
// and a 1-lane FC dimension still connects every ordered pair.
func TestHierarchicalDegenerateCompositions(t *testing.T) {
	t.Run("unit-dims", func(t *testing.T) {
		h, err := NewHierarchical([]DimSpec{
			{Kind: KindRing, Size: 1, Lanes: 2, Class: IntraPackage},
			{Kind: KindSwitch, Size: 1, Lanes: 2, Class: InterPackage},
			{Kind: KindFullyConnected, Size: 4, Lanes: 1, Class: InterPackage},
		})
		if err != nil {
			t.Fatal(err)
		}
		if h.NumNPUs() != 4 {
			t.Fatalf("NumNPUs = %d, want 4", h.NumNPUs())
		}
		if h.NumNodes() != 4 {
			t.Fatalf("unit switch dim allocated switch nodes: NumNodes = %d", h.NumNodes())
		}
		// Only the FC dim carries links: 4*3 ordered pairs x 1 lane.
		if got := len(h.Links()); got != 12 {
			t.Fatalf("links = %d, want 12", got)
		}
	})
	t.Run("single-dim", func(t *testing.T) {
		h, err := NewHierarchical([]DimSpec{{Kind: KindRing, Size: 6, Lanes: 1, Class: IntraPackage}})
		if err != nil {
			t.Fatal(err)
		}
		if h.NumNPUs() != 6 || len(h.Dims()) != 1 {
			t.Fatalf("got %d NPUs, %d dims", h.NumNPUs(), len(h.Dims()))
		}
		if g := h.Group(DimLocal, 3); len(g) != 6 {
			t.Fatalf("single-dim group = %v", g)
		}
	})
	t.Run("switch-only", func(t *testing.T) {
		h, err := NewHierarchical([]DimSpec{{Kind: KindSwitch, Size: 8, Lanes: 2, Class: IntraPackage}})
		if err != nil {
			t.Fatal(err)
		}
		if h.NumNodes() != 10 {
			t.Fatalf("NumNodes = %d, want 8 NPUs + 2 switches (one per lane)", h.NumNodes())
		}
		d := h.Dims()[0]
		if !d.Direct || !d.Halving {
			t.Fatalf("pow2 switch dim = %+v, want Direct and Halving", d)
		}
		// Every pair is reachable in exactly two hops through the switch.
		for src := Node(0); src < 8; src++ {
			for dst := Node(0); dst < 8; dst++ {
				if src == dst {
					continue
				}
				path := h.PathLinks(DimLocal, 0, src, dst)
				if len(path) != 2 {
					t.Fatalf("path %d->%d = %v, want up+down", src, dst, path)
				}
			}
		}
	})
	t.Run("non-pow2-switch-not-halving", func(t *testing.T) {
		h, err := NewHierarchical([]DimSpec{{Kind: KindSwitch, Size: 6, Lanes: 1, Class: IntraPackage}})
		if err != nil {
			t.Fatal(err)
		}
		d := h.Dims()[0]
		if !d.Direct || d.Halving {
			t.Fatalf("6-wide switch dim = %+v, want Direct but not Halving", d)
		}
	})
	t.Run("one-lane-fc", func(t *testing.T) {
		h, err := NewHierarchical([]DimSpec{
			{Kind: KindRing, Size: 2, Lanes: 1, Class: IntraPackage},
			{Kind: KindFullyConnected, Size: 3, Lanes: 1, Class: InterPackage},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Ring dim: 2 groups... the local dim forms 3 rings of 2 (one per
		// FC group member pair); FC dim: 2 groups of 3 with 6 ordered
		// pairs each.
		for n := Node(0); int(n) < h.NumNPUs(); n++ {
			g := h.Group(AxisDim(0), n)
			if len(g) != 3 {
				t.Fatalf("fc group of %d = %v", n, g)
			}
			for _, peer := range g {
				if peer == n {
					continue
				}
				if path := h.PathLinks(AxisDim(0), 0, n, peer); len(path) != 1 {
					t.Fatalf("fc path %d->%d = %v, want one dedicated link", n, peer, path)
				}
			}
		}
	})
	t.Run("rejects", func(t *testing.T) {
		bad := [][]DimSpec{
			nil,
			{{Kind: KindRing, Size: 0, Lanes: 1, Class: IntraPackage}},
			{{Kind: KindRing, Size: 2, Lanes: 0, Class: IntraPackage}},
			{{Kind: DimKind(99), Size: 2, Lanes: 1, Class: IntraPackage}},
		}
		for _, specs := range bad {
			if _, err := NewHierarchical(specs); err == nil {
				t.Fatalf("NewHierarchical(%+v) accepted", specs)
			}
		}
	})
}

// refGroup lists, in coordinate order, the nodes that share every
// coordinate with n except the one along dim. It decodes node ids from
// the mixed-radix numbering directly (local index fastest, then the
// package coordinates in declaration order), independently of the
// builder's arithmetic.
func refGroup(specs []DimSpec, dim int, n Node) []Node {
	coords := func(m Node) []int {
		c := make([]int, len(specs))
		rest := int(m)
		for i, s := range specs {
			c[i] = rest % s.Size
			rest /= s.Size
		}
		return c
	}
	total := 1
	for _, s := range specs {
		total *= s.Size
	}
	want := coords(n)
	var out []Node
	for v := 0; v < specs[dim].Size; v++ {
		for m := Node(0); int(m) < total; m++ {
			c := coords(m)
			same := c[dim] == v
			for i := range c {
				same = same && (i == dim || c[i] == want[i])
			}
			if same {
				out = append(out, m)
			}
		}
	}
	return out
}

// TestHierarchicalGroupsAndSwitchIndices: groups and switch-dimension
// positions are recorded as the builder adds groups. For every
// node and dimension the group must equal a coordinate-decoding scan, and
// for every ordered pair on a switch dimension (members and strangers
// alike) the positions, the membership verdict and the lanes PathLinks
// picks must equal that scan's.
func TestHierarchicalGroupsAndSwitchIndices(t *testing.T) {
	cases := map[string][]DimSpec{
		"sw8,fc4,ring4": {
			{Kind: KindSwitch, Size: 8, Lanes: 2, Class: IntraPackage},
			{Kind: KindFullyConnected, Size: 4, Lanes: 1, Class: InterPackage},
			{Kind: KindRing, Size: 4, Lanes: 2, Class: InterPackage},
		},
		"ring2,sw4,sw3": {
			{Kind: KindRing, Size: 2, Lanes: 1, Class: IntraPackage},
			{Kind: KindSwitch, Size: 4, Lanes: 2, Class: InterPackage},
			{Kind: KindSwitch, Size: 3, Lanes: 3, Class: InterPackage},
		},
	}
	for name, specs := range cases {
		h, err := NewHierarchical(specs)
		if err != nil {
			t.Fatal(err)
		}
		n := Node(h.NumNPUs())
		for dim, spec := range specs {
			d := dimOf(dim)
			for src := Node(0); src < n; src++ {
				g := refGroup(specs, dim, src)
				if got := h.Group(d, src); !reflect.DeepEqual(got, g) {
					t.Fatalf("%s dim %d node %d: group %v, want %v", name, dim, src, got, g)
				}
				if spec.Kind != KindSwitch {
					continue
				}
				for dst := Node(-1); dst <= n; dst++ {
					si, di := -1, -1
					for i, m := range g {
						if m == src {
							si = i
						}
						if m == dst {
							di = i
						}
					}
					member := si >= 0 && di >= 0 && si != di
					gotSi, gotDi, ok := peersOK(h, dim, src, dst)
					if ok != member {
						t.Fatalf("%s dim %d %d->%d: accepted=%v, group scan says member=%v", name, dim, src, dst, ok, member)
					}
					if !member {
						continue
					}
					if gotSi != si || gotDi != di {
						t.Fatalf("%s dim %d %d->%d: indices (%d,%d), group scan (%d,%d)", name, dim, src, dst, gotSi, gotDi, si, di)
					}
					for c := 0; c < spec.Lanes+1; c++ {
						lane := (matchRound(si, di, len(g)) + c) % spec.Lanes
						fd := &h.dims[dim]
						want := []LinkID{fd.up[int(src)*spec.Lanes+lane], fd.down[int(dst)*spec.Lanes+lane]}
						if got := h.PathLinks(d, c, src, dst); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s dim %d %d->%d ch %d: path %v, want %v", name, dim, src, dst, c, got, want)
						}
					}
				}
			}
		}
	}
}

// peersOK calls peers and reports whether it accepted the pair instead of
// panicking.
func peersOK(h *Fabric, dim int, src, dst Node) (si, di int, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	si, di = h.peers(dim, src, dst)
	return si, di, true
}

// TestHierarchicalHotPathAllocs: the per-message and per-step lookups
// allocate nothing beyond a path's returned slice.
func TestHierarchicalHotPathAllocs(t *testing.T) {
	h, err := NewHierarchical([]DimSpec{
		{Kind: KindSwitch, Size: 8, Lanes: 2, Class: IntraPackage},
		{Kind: KindRing, Size: 4, Lanes: 1, Class: InterPackage},
		{Kind: KindSwitch, Size: 4, Lanes: 2, Class: InterPackage},
	})
	if err != nil {
		t.Fatal(err)
	}
	src := Node(9)
	for _, d := range []Dim{DimLocal, AxisDim(1)} {
		g := h.Group(d, src)
		dst := g[0]
		if dst == src {
			dst = g[1]
		}
		if got := testing.AllocsPerRun(100, func() { h.PathLinks(d, 1, src, dst) }); got != 1 {
			t.Errorf("switch PathLinks(%v) allocates %.0f/op, want 1 (the returned slice)", d, got)
		}
	}
	for _, d := range []Dim{DimLocal, AxisDim(0), AxisDim(1)} {
		if got := testing.AllocsPerRun(100, func() { h.Group(d, src) }); got != 0 {
			t.Errorf("Group(%v) allocates %.0f/op, want 0", d, got)
		}
	}
	if got := testing.AllocsPerRun(100, func() { h.RingOf(AxisDim(0), src, 1) }); got != 0 {
		t.Errorf("RingOf allocates %.0f/op, want 0", got)
	}
}
