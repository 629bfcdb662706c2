package noc

// The link plan: which links a collective lane can cross at path
// position >= 1. It decides the packet model's event order (each link's
// ordering component, stamped into every event key its traffic creates)
// and its packet-train license (the no-transit flag), and it is what
// Partition shards a network by. New builds it once, from the topology.

import (
	"fmt"

	"astrasim/internal/eventq"
	"astrasim/internal/topology"
)

// plan labels the packet model's links. It walks every collective lane
// the topology can schedule (each dimension × channel: the ring successor
// hop of every NPU, or every ordered pair of a direct group) and unions
// the links each lane crosses. The resulting components are closed under
// packet movement: once a message's first link is known, every event it
// generates stays inside one component. Components are numbered from 1 in
// LinkID order, so the numbering is a pure function of the topology;
// component 0 is the system layer's. A link no lane crosses at path
// position >= 1 is fed only by source injection: it is no-transit, which
// licenses packet trains (train.go).
//
// The lookahead is the minimum wire hop delay: any event one component
// creates for another lies at least that far ahead. A topology without
// links, or with a zero hop delay, gets no plan: its links keep
// component 0 and carry no trains, and planErr says why Partition
// refuses it.
func (n *Network) plan(topo topology.Topology) {
	if len(n.links) == 0 {
		n.planErr = fmt.Errorf("noc: topology %s has no links to partition", topo.Name())
		return
	}
	n.lookahead = n.links[0].hop
	for _, l := range n.links[1:] {
		n.lookahead = min(n.lookahead, l.hop)
	}
	if n.lookahead == 0 {
		n.planErr = fmt.Errorf("noc: zero hop delay on %s makes conservative lookahead degenerate; intra-run parallelism needs positive link+router latency", topo.Name())
		return
	}

	// Union-find over links: lanes that share a link share a component.
	parent := make([]int32, len(n.links))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, l := range n.links {
		l.noTransit = true
	}
	unite := func(path []topology.LinkID) {
		for i := 1; i < len(path); i++ {
			n.links[path[i]].noTransit = false
			if a, b := find(int32(path[0])), find(int32(path[i])); a != b {
				parent[b] = a
			}
		}
	}

	npus := topo.NumNPUs()
	for _, d := range topo.Dims() {
		if d.Size <= 1 {
			// A degenerate dimension schedules no traffic (and its
			// single-node "rings" own no links).
			continue
		}
		for ch := 0; ch < d.Channels; ch++ {
			for i := 0; i < npus; i++ {
				node := topology.Node(i)
				if !d.Direct {
					if r := topo.RingOf(d.Dim, node, ch); r.Size() > 1 {
						unite(topo.PathLinks(d.Dim, ch, node, r.Next(node)))
					}
					continue
				}
				// Visit each direct group once, from its first member.
				g := topo.Group(d.Dim, node)
				if len(g) == 0 || g[0] != node {
					continue
				}
				for _, src := range g {
					for _, dst := range g {
						if src != dst {
							unite(topo.PathLinks(d.Dim, ch, src, dst))
						}
					}
				}
			}
		}
	}

	// Densify the component roots, in LinkID order.
	compOf := make([]uint32, len(n.links))
	for i, l := range n.links {
		root := find(int32(i))
		if compOf[root] == 0 {
			n.comps++
			compOf[root] = uint32(n.comps)
		}
		l.comp = compOf[root]
	}
}

// Plan reports the link plan New built: the number of ordering
// components, and the lookahead, the minimum hop delay over all links. It
// returns an error, and no components, when the topology has no links or
// a zero hop delay; an unbounded network has no plan either.
func (n *Network) Plan() (comps int, lookahead eventq.Time, err error) {
	if n.unbounded {
		return 0, 0, fmt.Errorf("noc: the unbounded network cannot be partitioned")
	}
	return n.comps, n.lookahead, n.planErr
}
