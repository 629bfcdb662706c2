package topology

import "testing"

func mustSwitched(t *testing.T, m, n int, cfg SwitchedConfig) *Fabric {
	t.Helper()
	s, err := NewSwitched(m, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSwitchedBasics(t *testing.T) {
	s := mustSwitched(t, 4, 4, DefaultSwitchedConfig())
	if s.NumNPUs() != 16 {
		t.Errorf("NumNPUs = %d, want 16", s.NumNPUs())
	}
	// 16 NPUs + 4 local switches + 2 global switches.
	if s.NumNodes() != 22 {
		t.Errorf("NumNodes = %d, want 22", s.NumNodes())
	}
	dims := s.Dims()
	if len(dims) != 2 || !dims[0].Direct || !dims[1].Direct {
		t.Fatalf("dims = %+v, want two direct dims", dims)
	}
	// Links: per NPU: 1 local switch x2 + 2 global x2 = 6 -> 96.
	if got := len(s.Links()); got != 96 {
		t.Errorf("links = %d, want 96", got)
	}
}

func TestSwitchedPaths(t *testing.T) {
	s := mustSwitched(t, 4, 4, DefaultSwitchedConfig())
	links := s.Links()
	// Local path: NPU 1 -> NPU 3 (same package) via the local switch.
	p := s.PathLinks(DimLocal, 0, 1, 3)
	if len(p) != 2 {
		t.Fatalf("local path length %d, want 2", len(p))
	}
	for _, id := range p {
		if links[id].Class != IntraPackage {
			t.Errorf("local path uses %v link", links[id].Class)
		}
	}
	if links[p[0]].Dst != links[p[1]].Src {
		t.Error("local path does not pass through one switch")
	}
	// Package path: NPU 1 (pkg 0) -> NPU 13 (pkg 3, same local idx 1).
	p = s.PathLinks(DimPackage, 0, 1, 13)
	if len(p) != 2 {
		t.Fatalf("package path length %d, want 2", len(p))
	}
	for _, id := range p {
		if links[id].Class != InterPackage {
			t.Errorf("package path uses %v link", links[id].Class)
		}
	}
}

func TestSwitchedPathPanics(t *testing.T) {
	s := mustSwitched(t, 4, 4, DefaultSwitchedConfig())
	for name, f := range map[string]func(){
		"cross-package local":  func() { s.PathLinks(DimLocal, 0, 0, 5) },
		"non-peer package dim": func() { s.PathLinks(DimPackage, 0, 0, 5) },
		"ring lookup":          func() { s.RingOf(DimLocal, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSwitchedGroups(t *testing.T) {
	s := mustSwitched(t, 2, 3, DefaultSwitchedConfig())
	g := s.Group(DimLocal, 3)
	if len(g) != 2 || g[0] != 2 || g[1] != 3 {
		t.Errorf("local group of 3 = %v", g)
	}
	g = s.Group(DimPackage, 3)
	if len(g) != 3 || g[0] != 1 || g[1] != 3 || g[2] != 5 {
		t.Errorf("package group of 3 = %v", g)
	}
}

func TestSwitchedErrors(t *testing.T) {
	if _, err := NewSwitched(0, 4, DefaultSwitchedConfig()); err == nil {
		t.Error("expected error for zero local size")
	}
	if _, err := NewSwitched(4, 4, SwitchedConfig{LocalSwitches: 1}); err == nil {
		t.Error("expected error for zero global switches")
	}
}

// TestDirectGroupsCached: A2A's package groups and both Switched
// dimensions return groups built at construction, so the per-step
// lookups of the system layer (halving partners, direct fan-out)
// allocate nothing — like Hierarchical's.
func TestDirectGroupsCached(t *testing.T) {
	a, err := NewA2A(4, 8, DefaultA2AConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSwitched(4, 8, DefaultSwitchedConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []Topology{a, s} {
		for _, d := range []Dim{DimLocal, DimPackage} {
			src := Node(13)
			if got := testing.AllocsPerRun(100, func() { topo.Group(d, src) }); got != 0 {
				t.Errorf("%s Group(%v) allocates %.0f/op, want 0", topo.Name(), d, got)
			}
			// Every member of a group sees the same group, containing itself.
			g := topo.Group(d, src)
			for _, m := range g {
				if h := topo.Group(d, m); &h[0] != &g[0] {
					t.Errorf("%s Group(%v, %d) is not the shared group of %d", topo.Name(), d, m, src)
				}
			}
		}
	}
	if g := a.Group(DimPackage, 13); len(g) != 8 || g[0] != 1 || g[7] != 29 {
		t.Errorf("a2a package group of 13 = %v, want local index 1 of every package", g)
	}
	if g := s.Group(DimLocal, 13); len(g) != 4 || g[0] != 12 || g[3] != 15 {
		t.Errorf("switched local group of 13 = %v, want package 3's NPUs", g)
	}
}
