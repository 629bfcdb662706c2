package system

import (
	"fmt"
	"slices"

	"astrasim/internal/topology"
)

// lane is one collective lane — a (dimension, channel) pair, the channel
// an LSQ schedules — with every node's destinations and physical routes
// resolved from the topology. A chunk looks its lane up once per
// chunk-phase, when it enters the phase, and every send then indexes
// slices: no map lookups, ring scans or group scans per message. Routes
// are shared read-only by every message on the lane (retransmit clones
// included), which is safe because the topology is immutable.
//
// A lane holds the tables of the phase kinds run on it, each built on
// first use: ring phases run on ring dimensions, direct and halving
// phases on direct ones.
type lane struct {
	dim     topology.Dim
	channel int

	// Ring phases: next[n] is n's successor on its channel ring and
	// path[n] the route to it.
	next []topology.Node
	path [][]topology.LinkID

	// Direct and halving phases: group[n] is n's dimension group in
	// Group order, pos[n] is n's index in it, and paths[n][i] is the
	// route to group[n][i], resolved on its first send (a halving
	// schedule reaches only log2 of its peers).
	group [][]topology.Node
	pos   []int
	paths [][][]topology.LinkID
}

// buildRing resolves every node's ring successor and route.
func (l *lane) buildRing(topo topology.Topology) {
	n := topo.NumNPUs()
	l.next = make([]topology.Node, n)
	l.path = make([][]topology.LinkID, n)
	for i := range l.next {
		src := topology.Node(i)
		dst := topo.RingOf(l.dim, src, l.channel).Next(src)
		l.next[i] = dst
		l.path[i] = topo.PathLinks(l.dim, l.channel, src, dst)
	}
}

// buildDirect resolves every node's group and position; routes are
// filled in by directPath.
func (l *lane) buildDirect(topo topology.Topology) {
	n := topo.NumNPUs()
	l.group = make([][]topology.Node, n)
	l.pos = make([]int, n)
	total := 0
	for i := range l.group {
		src := topology.Node(i)
		g := topo.Group(l.dim, src)
		p := slices.Index(g, src)
		if p < 0 {
			panic(fmt.Sprintf("system: node %d missing from its own %v group", src, l.dim))
		}
		l.group[i], l.pos[i] = g, p
		total += len(g)
	}
	routes := make([][]topology.LinkID, total)
	l.paths = make([][][]topology.LinkID, n)
	for i, g := range l.group {
		l.paths[i], routes = routes[:len(g):len(g)], routes[len(g):]
	}
}

// directPath returns the route from n to its i-th group member.
func (l *lane) directPath(topo topology.Topology, n topology.Node, i int) []topology.LinkID {
	p := l.paths[n][i]
	if p == nil {
		p = topo.PathLinks(l.dim, l.channel, n, l.group[n][i])
		l.paths[n][i] = p
	}
	return p
}

// laneFor returns the lane of dimension index di (into s.dims) and
// channel, with the tables a direct or ring phase needs built.
func (s *System) laneFor(di, channel int, direct bool) *lane {
	l := s.lanes[di][channel]
	if l == nil {
		l = &lane{dim: s.dims[di].Dim, channel: channel}
		s.lanes[di][channel] = l
	}
	switch {
	case direct && l.group == nil:
		l.buildDirect(s.Topo)
	case !direct && l.next == nil:
		l.buildRing(s.Topo)
	}
	return l
}

// dimIndex returns d's index in s.dims.
func (s *System) dimIndex(d topology.Dim) int {
	for i, info := range s.dims {
		if info.Dim == d {
			return i
		}
	}
	panic(fmt.Sprintf("system: topology has no dimension %v", d))
}
