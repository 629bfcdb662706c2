package topology

import "fmt"

// Fabric is the topology every constructor builds: an ordered list of
// dimensions, each partitioning the NPUs into groups that are joined by
// parallel unidirectional rings (KindRing), a dedicated link per ordered
// pair and lane (KindFullyConnected), or switch nodes with one up/down
// port pair per NPU and lane (KindSwitch).
//
// NewTorus, NewA2A, NewSwitched, NewHierarchical and NewScaleOut differ
// only in the order they call the builder primitives (addDim, addGroup,
// addSwitches, addPort). That order fixes node numbering, group order,
// link IDs and which groups share a switch, so it is part of each
// family's contract: fault plans name links by ID.
type Fabric struct {
	name     string
	npus     int
	switches int
	links    []LinkSpec
	dims     []fabricDim
}

// fabricDim is one dimension of a Fabric. Rings per group (KindRing),
// pair links per ordered pair (KindFullyConnected) and switch ports per
// NPU (KindSwitch) all number info.Channels.
type fabricDim struct {
	info  DimInfo
	kind  DimKind
	class LinkClass
	// slot[n] is NPU n's group; on direct dimensions pos[n] is its
	// position in that group.
	slot, pos []int32
	groups    [][]Node
	// rings[slot][channel] on ring dimensions.
	rings [][]*Ring
	// pairs[slot][(lane*size+si)*size+di] on fully-connected dimensions.
	pairs [][]LinkID
	// up/down[n*channels+lane] are NPU n's switch port links.
	up, down []LinkID
}

// newFabric starts an empty fabric of npus NPUs.
func newFabric(name string, npus int) *Fabric {
	return &Fabric{name: name, npus: npus}
}

// addDim appends a dimension whose groups own links of the given class
// and returns its index.
func (f *Fabric) addDim(info DimInfo, kind DimKind, class LinkClass) int {
	d := fabricDim{info: info, kind: kind, class: class, slot: make([]int32, f.npus)}
	if kind != KindRing {
		d.pos = make([]int32, f.npus)
	}
	if kind == KindSwitch {
		d.up = make([]LinkID, f.npus*info.Channels)
		d.down = make([]LinkID, f.npus*info.Channels)
	}
	f.dims = append(f.dims, d)
	return len(f.dims) - 1
}

func (f *Fabric) addLink(src, dst Node, class LinkClass) LinkID {
	id := LinkID(len(f.links))
	f.links = append(f.links, LinkSpec{ID: id, Src: src, Dst: dst, Class: class})
	return id
}

// addGroup adds members, in order, as the next group of dimension i and
// connects it: one unidirectional ring per channel (ascending on even
// channels, descending on odd ones; rings of one node own no links) or
// one link per ordered pair per lane. Switch groups get their ports from
// addPort.
func (f *Fabric) addGroup(i int, members []Node) {
	d := &f.dims[i]
	slot := int32(len(d.groups))
	for p, n := range members {
		d.slot[n] = slot
		if d.pos != nil {
			d.pos[n] = int32(p)
		}
	}
	d.groups = append(d.groups, members)
	switch d.kind {
	case KindRing:
		// Channel 0 runs over members itself; the other channels' node
		// lists, all link lists and the rings take one allocation each.
		size, chans := len(members), d.info.Channels
		rs := make([]Ring, chans)
		nodes := make([]Node, (chans-1)*size)
		var links []LinkID
		if size > 1 {
			links = make([]LinkID, chans*size)
		}
		rings := make([]*Ring, chans)
		for c := range rs {
			r := &rs[c]
			*r = Ring{Dim: d.info.Dim, Channel: c, Nodes: members}
			if c > 0 {
				r.Nodes = nodes[(c-1)*size : c*size : c*size]
				for k, n := range members {
					if c%2 == 0 {
						r.Nodes[k] = n
					} else {
						r.Nodes[size-1-k] = n
					}
				}
			}
			if size > 1 {
				r.Links = links[c*size : (c+1)*size : (c+1)*size]
				for k := range r.Nodes {
					r.Links[k] = f.addLink(r.Nodes[k], r.Nodes[(k+1)%size], d.class)
				}
			}
			rings[c] = r
		}
		d.rings = append(d.rings, rings)
	case KindFullyConnected:
		size := len(members)
		pairs := make([]LinkID, d.info.Channels*size*size)
		for lane := 0; lane < d.info.Channels; lane++ {
			for si, src := range members {
				for di, dst := range members {
					if si != di {
						pairs[(lane*size+si)*size+di] = f.addLink(src, dst, d.class)
					}
				}
			}
		}
		d.pairs = append(d.pairs, pairs)
	}
}

// addSwitches allocates k switch nodes and returns the first one's id.
func (f *Fabric) addSwitches(k int) Node {
	first := Node(f.npus + f.switches)
	f.switches += k
	return first
}

// addPort links NPU n to switch sw, up then down, as n's port on the
// given lane of switch dimension i.
func (f *Fabric) addPort(i int, n Node, lane int, sw Node) {
	d := &f.dims[i]
	k := int(n)*d.info.Channels + lane
	d.up[k] = f.addLink(n, sw, d.class)
	d.down[k] = f.addLink(sw, n, d.class)
}

// span returns size nodes starting at first, stride apart.
func span(first, size, stride int) []Node {
	out := make([]Node, size)
	for k := range out {
		out[k] = Node(first + k*stride)
	}
	return out
}

// Name implements Topology.
func (f *Fabric) Name() string { return f.name }

// NumNPUs implements Topology.
func (f *Fabric) NumNPUs() int { return f.npus }

// NumNodes implements Topology: NPUs plus switches.
func (f *Fabric) NumNodes() int { return f.npus + f.switches }

// Dims implements Topology, in the order the constructor added them.
func (f *Fabric) Dims() []DimInfo {
	out := make([]DimInfo, len(f.dims))
	for i := range f.dims {
		out[i] = f.dims[i].info
	}
	return out
}

// Links implements Topology.
func (f *Fabric) Links() []LinkSpec { return f.links }

// dim returns the index of dimension d, checking that n is an NPU.
func (f *Fabric) dim(d Dim, n Node) int {
	if n < 0 || int(n) >= f.npus {
		panic(fmt.Sprintf("topology: node %d out of range for %s", n, f.name))
	}
	for i := range f.dims {
		if f.dims[i].info.Dim == d {
			return i
		}
	}
	panic(fmt.Sprintf("topology: %s has no dimension %v", f.name, d))
}

// Group implements Topology. The returned slice is shared and must not be
// modified.
func (f *Fabric) Group(d Dim, n Node) []Node {
	dim := &f.dims[f.dim(d, n)]
	return dim.groups[dim.slot[n]]
}

// RingOf implements Topology. Panics on direct dimensions.
func (f *Fabric) RingOf(d Dim, n Node, channel int) *Ring {
	dim := &f.dims[f.dim(d, n)]
	if dim.kind != KindRing {
		panic(fmt.Sprintf("topology: dimension %v of %s is %s, not a ring", d, f.name, dim.kind))
	}
	rings := dim.rings[dim.slot[n]]
	return rings[channel%len(rings)]
}

// PathLinks implements Topology: the ring successor hop on ring
// dimensions, the pair's dedicated link on fully-connected ones (lanes
// spread by channel), and an up/down switch traversal on switch ones. The
// switch lane is the pair's round in a round-robin tournament over the
// group plus the channel, so that with at least size-1 lanes a full
// direct exchange uses each port link once ("one link per peer").
func (f *Fabric) PathLinks(d Dim, channel int, src, dst Node) []LinkID {
	i := f.dim(d, src)
	dim := &f.dims[i]
	if dim.kind == KindRing {
		rings := dim.rings[dim.slot[src]]
		r := rings[channel%len(rings)]
		if next := r.Next(src); next != dst {
			panic(fmt.Sprintf("topology: %d is not %d's successor on %v ring %d", dst, src, d, channel))
		}
		return []LinkID{r.LinkFrom(src)}
	}
	si, di := f.peers(i, src, dst)
	lanes, size := dim.info.Channels, dim.info.Size
	if dim.kind == KindFullyConnected {
		return []LinkID{dim.pairs[dim.slot[src]][(channel%lanes*size+si)*size+di]}
	}
	lane := (matchRound(si, di, size) + channel) % lanes
	return []LinkID{dim.up[int(src)*lanes+lane], dim.down[int(dst)*lanes+lane]}
}

// peers returns src's and dst's positions in their group along dimension
// i, panicking unless they are distinct members of one group.
func (f *Fabric) peers(i int, src, dst Node) (si, di int) {
	dim := &f.dims[i]
	if dst < 0 || int(dst) >= f.npus || dim.slot[src] != dim.slot[dst] || src == dst {
		panic(fmt.Sprintf("topology: %d and %d are not distinct %v peers in %s", src, dst, dim.info.Dim, f.name))
	}
	return int(dim.pos[src]), int(dim.pos[dst])
}

// matchRound returns the round-robin tournament round in which teams i and
// j meet, for n teams (i != j, both in [0, n)). For even n there are n-1
// rounds and each round is a perfect matching (the circle method); odd n is
// handled as n+1 with a bye.
func matchRound(i, j, n int) int {
	if n%2 == 1 {
		n++ // phantom team n-1 gives byes; real pairs keep distinct rounds
	}
	m := n - 1 // rounds
	switch {
	case i == n-1:
		return j % m
	case j == n-1:
		return i % m
	default:
		// In round r, pairs satisfy i + j = 2r (mod n-1).
		s := (i + j) % m
		// Solve 2r = s (mod m) for odd m: r = s * (m+1)/2 (mod m).
		return s * ((m + 1) / 2) % m
	}
}

var _ Topology = (*Fabric)(nil)
