package topology

import "testing"

func mustScaleOut(t *testing.T, m, n, k, pods, spines int) *Fabric {
	t.Helper()
	pod := mustTorus(t, m, n, k)
	s, err := NewScaleOut(pod, pods, spines)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestScaleOutBasics(t *testing.T) {
	s := mustScaleOut(t, 2, 2, 2, 4, 2)
	if s.NumNPUs() != 32 {
		t.Errorf("NumNPUs = %d, want 32 (4 pods x 8)", s.NumNPUs())
	}
	if s.NumNodes() != 34 {
		t.Errorf("NumNodes = %d, want 34 (+2 spines)", s.NumNodes())
	}
	dims := s.Dims()
	last := dims[len(dims)-1]
	if last.Dim != DimScaleOut || !last.Direct || last.Size != 4 || last.Channels != 2 {
		t.Errorf("scale-out dim = %+v", last)
	}
	if last.Dim.String() != "scale-out" {
		t.Errorf("dim name = %q", last.Dim.String())
	}
}

func TestScaleOutLinkClasses(t *testing.T) {
	s := mustScaleOut(t, 2, 2, 2, 2, 1)
	pod := mustTorus(t, 2, 2, 2)
	var intra, inter, so int
	for _, l := range s.Links() {
		switch l.Class {
		case IntraPackage:
			intra++
		case InterPackage:
			inter++
		case ScaleOutLink:
			so++
		}
	}
	var podIntra, podInter int
	for _, l := range pod.Links() {
		if l.Class == IntraPackage {
			podIntra++
		} else {
			podInter++
		}
	}
	if intra != 2*podIntra || inter != 2*podInter {
		t.Errorf("pod link replication: intra %d/%d inter %d/%d", intra, 2*podIntra, inter, 2*podInter)
	}
	// 16 NPUs x 1 spine x up+down = 32 scale-out links.
	if so != 32 {
		t.Errorf("scale-out links = %d, want 32", so)
	}
}

func TestScaleOutGroups(t *testing.T) {
	s := mustScaleOut(t, 2, 2, 2, 3, 2)
	// Node 9 = pod 1, local node 1. Scale-out group: local node 1 in each
	// pod: 1, 9, 17.
	g := s.Group(DimScaleOut, 9)
	if len(g) != 3 || g[0] != 1 || g[1] != 9 || g[2] != 17 {
		t.Errorf("scale-out group of 9 = %v, want [1 9 17]", g)
	}
	// Pod dimension groups stay inside the pod, offset correctly.
	lg := s.Group(DimLocal, 9)
	for _, n := range lg {
		if n < 8 || n >= 16 {
			t.Errorf("local group of 9 leaves pod 1: %v", lg)
		}
	}
}

func TestScaleOutRingsOffset(t *testing.T) {
	s := mustScaleOut(t, 2, 2, 2, 2, 1)
	r0 := s.RingOf(DimLocal, 0, 0)
	r1 := s.RingOf(DimLocal, 8, 0)
	if r0.Size() != r1.Size() {
		t.Fatal("pod rings differ in size")
	}
	for i := range r0.Nodes {
		if r1.Nodes[i] != r0.Nodes[i]+8 {
			t.Errorf("pod-1 ring node %d = %d, want %d", i, r1.Nodes[i], r0.Nodes[i]+8)
		}
	}
	// Links of different pods must be disjoint.
	for i := range r0.Links {
		if r0.Links[i] == r1.Links[i] {
			t.Errorf("pods share physical link %d", r0.Links[i])
		}
	}
	// Ring links must match the global link table.
	for i, id := range r1.Links {
		spec := s.Links()[id]
		if spec.Src != r1.Nodes[i] || spec.Dst != r1.Nodes[(i+1)%r1.Size()] {
			t.Errorf("pod-1 ring link %d endpoints %d->%d, want %d->%d",
				id, spec.Src, spec.Dst, r1.Nodes[i], r1.Nodes[(i+1)%r1.Size()])
		}
	}
}

func TestScaleOutPaths(t *testing.T) {
	s := mustScaleOut(t, 2, 2, 2, 2, 2)
	// Cross-pod path: NPU -> spine -> NPU over ScaleOutLink class.
	path := s.PathLinks(DimScaleOut, 0, 0, 8)
	if len(path) != 2 {
		t.Fatalf("scale-out path length = %d, want 2", len(path))
	}
	for _, id := range path {
		if s.Links()[id].Class != ScaleOutLink {
			t.Errorf("scale-out path uses %v link", s.Links()[id].Class)
		}
	}
	// Pod-internal path stays on pod links.
	r := s.RingOf(DimLocal, 8, 0)
	p := s.PathLinks(DimLocal, 0, 8, r.Next(8))
	if len(p) != 1 || s.Links()[p[0]].Class != IntraPackage {
		t.Errorf("pod-local path = %v (%v)", p, s.Links()[p[0]].Class)
	}
}

func TestScaleOutErrors(t *testing.T) {
	pod := mustTorus(t, 2, 2, 1)
	if _, err := NewScaleOut(pod, 1, 2); err == nil {
		t.Error("expected error for a single pod")
	}
	if _, err := NewScaleOut(pod, 2, 0); err == nil {
		t.Error("expected error for zero spines")
	}
	a2a, err := NewA2A(2, 2, DefaultA2AConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewScaleOut(a2a, 2, 1); err == nil {
		t.Error("expected error for a pod with internal switches")
	}
}
