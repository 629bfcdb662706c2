package topology

import "testing"

// Degenerate shapes — 1-node dimensions, single-active-dimension tori,
// and the 1x1x1 point topology — must build cleanly and keep every
// structural invariant (groups partition, rings cycle, no phantom links).

func TestSingleNodeTorus(t *testing.T) {
	tp := mustTorus(t, 1, 1, 1)
	if tp.NumNPUs() != 1 {
		t.Fatalf("1x1x1 has %d NPUs", tp.NumNPUs())
	}
	if n := len(tp.Links()); n != 0 {
		t.Fatalf("1x1x1 has %d links, want 0", n)
	}
	for _, d := range tp.Dims() {
		if d.Size != 1 {
			t.Fatalf("1x1x1 dim %v has size %d", d.Dim, d.Size)
		}
		if g := tp.Group(d.Dim, 0); len(g) != 1 || g[0] != 0 {
			t.Fatalf("1x1x1 group on %v = %v, want [0]", d.Dim, g)
		}
	}
}

func TestSingleActiveDimensionTorus(t *testing.T) {
	// 1x8x1: only the horizontal dimension carries traffic.
	tp := mustTorus(t, 1, 8, 1)
	if tp.NumNPUs() != 8 {
		t.Fatalf("1x8x1 has %d NPUs", tp.NumNPUs())
	}
	active := 0
	for _, d := range tp.Dims() {
		if d.Size == 1 {
			if g := tp.Group(d.Dim, 3); len(g) != 1 || g[0] != 3 {
				t.Fatalf("inactive dim %v group = %v, want [3]", d.Dim, g)
			}
			continue
		}
		active++
		if d.Size != 8 {
			t.Fatalf("active dim %v size %d, want 8", d.Dim, d.Size)
		}
		// Each ring must visit all 8 nodes and return home.
		for ch := 0; ch < d.Channels; ch++ {
			r := tp.RingOf(d.Dim, 0, ch)
			cur, seen := Node(0), map[Node]bool{}
			for i := 0; i < 8; i++ {
				if seen[cur] {
					t.Fatalf("ring ch%d revisits %d early", ch, cur)
				}
				seen[cur] = true
				cur = r.Next(cur)
			}
			if cur != 0 {
				t.Fatalf("ring ch%d does not close: ended at %d", ch, cur)
			}
		}
	}
	if active != 1 {
		t.Fatalf("1x8x1 has %d active dims, want 1", active)
	}
	// Every link belongs to the one active dimension.
	for _, l := range tp.Links() {
		if l.Src == l.Dst {
			t.Fatalf("self-link %v", l)
		}
	}
}

func TestConstructorRejectsDegenerateShapes(t *testing.T) {
	if _, err := NewTorus(0, 4, 4, DefaultTorusConfig()); err == nil {
		t.Fatal("NewTorus accepted a zero dimension")
	}
	if _, err := NewTorus(2, -1, 2, DefaultTorusConfig()); err == nil {
		t.Fatal("NewTorus accepted a negative dimension")
	}
	if _, err := NewTorus(2, 2, 2, TorusConfig{LocalRings: 0, HorizontalRings: 2, VerticalRings: 2}); err == nil {
		t.Fatal("NewTorus accepted zero rings")
	}
	if _, err := NewA2A(0, 4, DefaultA2AConfig()); err == nil {
		t.Fatal("NewA2A accepted a zero dimension")
	}
	if _, err := NewA2A(2, 4, A2AConfig{LocalRings: 2, GlobalSwitches: 0}); err == nil {
		t.Fatal("NewA2A accepted zero switches")
	}
}

func TestSingleNPUPerPackageA2A(t *testing.T) {
	// a2a:1x4 — no local rings in use; all traffic crosses the switches.
	a, err := NewA2A(1, 4, DefaultA2AConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNPUs() != 4 {
		t.Fatalf("1x4 alltoall has %d NPUs", a.NumNPUs())
	}
	for _, l := range a.Links() {
		if l.Class == IntraPackage {
			t.Fatalf("1-NPU packages must have no intra-package links, got %v", l)
		}
	}
}
