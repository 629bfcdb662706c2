package topology

import "fmt"

// Switched is the switch-based scale-up topology from §III-C's future-work
// list ("expanding this study to other scale-up topologies such as 4D/5D
// torus, switch-based, etc.") — an NVSwitch/DGX-style system: the M NPUs
// of each package connect all-to-all through per-package local switches
// (instead of rings), and packages connect all-to-all through global
// switches exactly like the hierarchical alltoall topology.
//
// Node numbering: NPU = p*M + l; local switch s of package p =
// NumNPUs + p*LocalSwitches + s; global switch g = NumNPUs +
// N*LocalSwitches + g.
type Switched struct {
	local, packages               int
	localSwitches, globalSwitches int

	links []LinkSpec
	// localUp[i][s] / localDown[i][s]: NPU i's links to/from its
	// package's s-th local switch.
	localUp, localDown [][]LinkID
	// globalUp[i][g] / globalDown[i][g]: NPU i's links to/from global
	// switch g.
	globalUp, globalDown [][]LinkID
	// localGroups[p] lists package p's NPUs; pkgGroups[l] the NPUs with
	// local index l in every package.
	localGroups, pkgGroups [][]Node
}

// SwitchedConfig sets the switch multiplicities.
type SwitchedConfig struct {
	LocalSwitches  int
	GlobalSwitches int
}

// DefaultSwitchedConfig uses one local switch per package and two global
// switches (mirroring Fig. 3b's global tier).
func DefaultSwitchedConfig() SwitchedConfig {
	return SwitchedConfig{LocalSwitches: 1, GlobalSwitches: 2}
}

// NewSwitched builds an MxN switch-based system.
func NewSwitched(local, packages int, cfg SwitchedConfig) (*Switched, error) {
	if local <= 0 || packages <= 0 {
		return nil, fmt.Errorf("topology: invalid switched size %dx%d", local, packages)
	}
	if _, err := npuCount(local, packages); err != nil {
		return nil, err
	}
	if cfg.LocalSwitches <= 0 || cfg.GlobalSwitches <= 0 {
		return nil, fmt.Errorf("topology: switch counts must be positive, got %+v", cfg)
	}
	s := &Switched{
		local: local, packages: packages,
		localSwitches: cfg.LocalSwitches, globalSwitches: cfg.GlobalSwitches,
	}
	s.build()
	return s, nil
}

func (s *Switched) addLink(src, dst Node, class LinkClass) LinkID {
	id := LinkID(len(s.links))
	s.links = append(s.links, LinkSpec{ID: id, Src: src, Dst: dst, Class: class})
	return id
}

func (s *Switched) build() {
	n := s.NumNPUs()
	s.localUp = make([][]LinkID, n)
	s.localDown = make([][]LinkID, n)
	s.globalUp = make([][]LinkID, n)
	s.globalDown = make([][]LinkID, n)
	s.localGroups = make([][]Node, s.packages)
	s.pkgGroups = make([][]Node, s.local)
	for i := 0; i < n; i++ {
		l, p := i%s.local, i/s.local
		s.localGroups[p] = append(s.localGroups[p], Node(i))
		s.pkgGroups[l] = append(s.pkgGroups[l], Node(i))
	}
	for i := 0; i < n; i++ {
		p := i / s.local
		s.localUp[i] = make([]LinkID, s.localSwitches)
		s.localDown[i] = make([]LinkID, s.localSwitches)
		for sw := 0; sw < s.localSwitches; sw++ {
			node := Node(n + p*s.localSwitches + sw)
			s.localUp[i][sw] = s.addLink(Node(i), node, IntraPackage)
			s.localDown[i][sw] = s.addLink(node, Node(i), IntraPackage)
		}
		s.globalUp[i] = make([]LinkID, s.globalSwitches)
		s.globalDown[i] = make([]LinkID, s.globalSwitches)
		for g := 0; g < s.globalSwitches; g++ {
			node := Node(n + s.packages*s.localSwitches + g)
			s.globalUp[i][g] = s.addLink(Node(i), node, InterPackage)
			s.globalDown[i][g] = s.addLink(node, Node(i), InterPackage)
		}
	}
}

// Name implements Topology.
func (s *Switched) Name() string {
	return fmt.Sprintf("%dx%d switched", s.local, s.packages)
}

// NumNPUs implements Topology.
func (s *Switched) NumNPUs() int { return s.local * s.packages }

// NumNodes implements Topology (NPUs + local switches + global switches).
func (s *Switched) NumNodes() int {
	return s.NumNPUs() + s.packages*s.localSwitches + s.globalSwitches
}

// Dims implements Topology: both dimensions are direct exchanges.
func (s *Switched) Dims() []DimInfo {
	return []DimInfo{
		{Dim: DimLocal, Size: s.local, Channels: s.localSwitches, Direct: true},
		{Dim: DimPackage, Size: s.packages, Channels: s.globalSwitches, Direct: true},
	}
}

func (s *Switched) coords(n Node) (l, p int) {
	if n < 0 || int(n) >= s.NumNPUs() {
		panic(fmt.Sprintf("topology: node %d out of range for %s", n, s.Name()))
	}
	return int(n) % s.local, int(n) / s.local
}

// Group implements Topology. The returned slice is shared and must not
// be modified.
func (s *Switched) Group(d Dim, n Node) []Node {
	l, p := s.coords(n)
	switch d {
	case DimLocal:
		return s.localGroups[p]
	case DimPackage:
		return s.pkgGroups[l]
	}
	panic(fmt.Sprintf("topology: switched has no dimension %v", d))
}

// RingOf implements Topology; a switched system has no rings.
func (s *Switched) RingOf(d Dim, n Node, channel int) *Ring {
	panic(fmt.Sprintf("topology: dimension %v of %s is switched, not a ring", d, s.Name()))
}

// PathLinks implements Topology: NPU -> switch -> NPU on both tiers, with
// round-robin pair-to-switch matching.
func (s *Switched) PathLinks(d Dim, channel int, src, dst Node) []LinkID {
	sl, sp := s.coords(src)
	dl, dp := s.coords(dst)
	switch d {
	case DimLocal:
		if sp != dp {
			panic(fmt.Sprintf("topology: %d -> %d crosses packages on the local dimension", src, dst))
		}
		if src == dst {
			panic(fmt.Sprintf("topology: self-send %d on local dimension", src))
		}
		sw := (matchRound(sl, dl, s.local) + channel) % s.localSwitches
		return []LinkID{s.localUp[src][sw], s.localDown[dst][sw]}
	case DimPackage:
		if sl != dl {
			panic(fmt.Sprintf("topology: %d and %d are not package-dimension peers", src, dst))
		}
		if sp == dp {
			panic(fmt.Sprintf("topology: %d -> %d is intra-package", src, dst))
		}
		g := (matchRound(sp, dp, s.packages) + channel) % s.globalSwitches
		return []LinkID{s.globalUp[src][g], s.globalDown[dst][g]}
	}
	panic(fmt.Sprintf("topology: switched has no dimension %v", d))
}

// Links implements Topology.
func (s *Switched) Links() []LinkSpec { return s.links }

var _ Topology = (*Switched)(nil)
