package topology

import "fmt"

// ScaleOut extends the simulator beyond the scale-up domain — the paper's
// concluding future-work item ("we also plan to extend it to a scale-out
// fabric (modeling the transport layer, e.g., Ethernet)"). It replicates
// one scale-up pod (a hierarchical torus) P times and connects NPUs with
// the same pod-local position across pods through an ethernet-like spine
// of one or more switches, adding a final direct "scale-out" dimension to
// the collective hierarchy.
//
// Node numbering: pod p's NPU i has id p*podNPUs + i; spine switch s has
// id P*podNPUs + s. Pod-internal links are replicated per pod; each NPU
// gets one ScaleOutLink up/down pair per spine switch.
type ScaleOut struct {
	pod    Topology
	pods   int
	spines int

	podNPUs  int
	podLinks int
	links    []LinkSpec
	// up[i][s] / down[i][s]: NPU i's links to/from spine s.
	up, down [][]LinkID
}

// NewScaleOut replicates pod (which must be switch-free, i.e. a torus)
// across pods pods joined by spines spine switches.
func NewScaleOut(pod Topology, pods, spines int) (*ScaleOut, error) {
	if pods <= 1 {
		return nil, fmt.Errorf("topology: scale-out needs >= 2 pods, got %d", pods)
	}
	if spines <= 0 {
		return nil, fmt.Errorf("topology: scale-out needs >= 1 spine switch, got %d", spines)
	}
	if pod.NumNodes() != pod.NumNPUs() {
		return nil, fmt.Errorf("topology: scale-out pods must be switch-free, %s is not", pod.Name())
	}
	if _, err := npuCount(pod.NumNPUs(), pods); err != nil {
		return nil, err
	}
	s := &ScaleOut{
		pod:      pod,
		pods:     pods,
		spines:   spines,
		podNPUs:  pod.NumNPUs(),
		podLinks: len(pod.Links()),
	}
	s.build()
	return s, nil
}

func (s *ScaleOut) build() {
	// Replicate pod links with node and id offsets.
	for p := 0; p < s.pods; p++ {
		off := Node(p * s.podNPUs)
		for _, l := range s.pod.Links() {
			s.links = append(s.links, LinkSpec{
				ID:    LinkID(len(s.links)),
				Src:   l.Src + off,
				Dst:   l.Dst + off,
				Class: l.Class,
			})
		}
	}
	// Spine links.
	n := s.NumNPUs()
	s.up = make([][]LinkID, n)
	s.down = make([][]LinkID, n)
	for i := 0; i < n; i++ {
		s.up[i] = make([]LinkID, s.spines)
		s.down[i] = make([]LinkID, s.spines)
		for sp := 0; sp < s.spines; sp++ {
			sw := Node(n + sp)
			s.up[i][sp] = LinkID(len(s.links))
			s.links = append(s.links, LinkSpec{ID: s.up[i][sp], Src: Node(i), Dst: sw, Class: ScaleOutLink})
			s.down[i][sp] = LinkID(len(s.links))
			s.links = append(s.links, LinkSpec{ID: s.down[i][sp], Src: sw, Dst: Node(i), Class: ScaleOutLink})
		}
	}
}

// Name implements Topology.
func (s *ScaleOut) Name() string {
	return fmt.Sprintf("%d pods of %s over %d-spine scale-out", s.pods, s.pod.Name(), s.spines)
}

// NumNPUs implements Topology.
func (s *ScaleOut) NumNPUs() int { return s.pods * s.podNPUs }

// NumNodes implements Topology.
func (s *ScaleOut) NumNodes() int { return s.NumNPUs() + s.spines }

// Pods returns the pod count.
func (s *ScaleOut) Pods() int { return s.pods }

// Dims implements Topology: the pod's dimensions followed by the direct
// scale-out dimension (hierarchical collectives cross the spine last).
func (s *ScaleOut) Dims() []DimInfo {
	dims := append([]DimInfo(nil), s.pod.Dims()...)
	dims = append(dims, DimInfo{Dim: DimScaleOut, Size: s.pods, Channels: s.spines, Direct: true})
	return dims
}

func (s *ScaleOut) split(n Node) (pod int, local Node) {
	if n < 0 || int(n) >= s.NumNPUs() {
		panic(fmt.Sprintf("topology: node %d out of range for %s", n, s.Name()))
	}
	return int(n) / s.podNPUs, n % Node(s.podNPUs)
}

// Group implements Topology.
func (s *ScaleOut) Group(d Dim, n Node) []Node {
	pod, local := s.split(n)
	if d == DimScaleOut {
		g := make([]Node, s.pods)
		for p := 0; p < s.pods; p++ {
			g[p] = Node(p*s.podNPUs) + local
		}
		return g
	}
	base := s.pod.Group(d, local)
	out := make([]Node, len(base))
	off := Node(pod * s.podNPUs)
	for i, b := range base {
		out[i] = b + off
	}
	return out
}

// RingOf implements Topology for the pod dimensions (the scale-out
// dimension is direct and has no rings).
func (s *ScaleOut) RingOf(d Dim, n Node, channel int) *Ring {
	if d == DimScaleOut {
		panic("topology: the scale-out dimension is direct, not a ring")
	}
	pod, local := s.split(n)
	base := s.pod.RingOf(d, local, channel)
	nodeOff := Node(pod * s.podNPUs)
	linkOff := LinkID(pod * s.podLinks)
	r := &Ring{Dim: base.Dim, Channel: base.Channel,
		Nodes: make([]Node, len(base.Nodes)),
		Links: make([]LinkID, len(base.Links))}
	for i, b := range base.Nodes {
		r.Nodes[i] = b + nodeOff
	}
	for i, l := range base.Links {
		r.Links[i] = l + linkOff
	}
	return r
}

// PathLinks implements Topology. Scale-out messages go NPU -> spine ->
// NPU with the pair-to-spine matching of the alltoall topology; pod
// dimensions delegate to the pod with id offsets.
func (s *ScaleOut) PathLinks(d Dim, channel int, src, dst Node) []LinkID {
	if d == DimScaleOut {
		sp, sl := s.split(src)
		dp, dl := s.split(dst)
		if sl != dl {
			panic(fmt.Sprintf("topology: %d and %d are not scale-out peers", src, dst))
		}
		if sp == dp {
			panic(fmt.Sprintf("topology: %d -> %d is intra-pod", src, dst))
		}
		spine := (matchRound(sp, dp, s.pods) + channel) % s.spines
		return []LinkID{s.up[src][spine], s.down[dst][spine]}
	}
	pod, sl := s.split(src)
	dpod, dl := s.split(dst)
	if pod != dpod {
		panic(fmt.Sprintf("topology: %d -> %d crosses pods on dimension %v", src, dst, d))
	}
	base := s.pod.PathLinks(d, channel, sl, dl)
	out := make([]LinkID, len(base))
	off := LinkID(pod * s.podLinks)
	for i, l := range base {
		out[i] = l + off
	}
	return out
}

// Links implements Topology.
func (s *ScaleOut) Links() []LinkSpec { return s.links }

var _ Topology = (*ScaleOut)(nil)
