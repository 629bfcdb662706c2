package topology

import (
	"fmt"
	"strings"
)

// DimKind selects the connectivity pattern of one Hierarchical dimension
// (the ASTRA-sim 2.0 per-dimension network types).
type DimKind int

const (
	// KindRing connects each group as parallel unidirectional rings
	// (split-bidirectional beyond dimension 0, as on the 3D torus).
	KindRing DimKind = iota
	// KindFullyConnected gives every ordered pair in a group a dedicated
	// unidirectional link per lane (direct single-step exchange).
	KindFullyConnected
	// KindSwitch connects each group through per-group switch nodes
	// (lanes = switch count); power-of-two switch groups schedule
	// halving-doubling collectives.
	KindSwitch
)

func (k DimKind) String() string {
	switch k {
	case KindRing:
		return "ring"
	case KindFullyConnected:
		return "fc"
	case KindSwitch:
		return "sw"
	}
	return fmt.Sprintf("DimKind(%d)", int(k))
}

// ParseDimKind inverts DimKind.String.
func ParseDimKind(s string) (DimKind, error) {
	switch s {
	case "ring":
		return KindRing, nil
	case "fc":
		return KindFullyConnected, nil
	case "sw":
		return KindSwitch, nil
	}
	return 0, fmt.Errorf("topology: unknown dimension kind %q", s)
}

// DimSpec describes one dimension of a Hierarchical composition. The link
// class selects the bandwidth/latency/efficiency/packet-size bundle the
// network layer assigns (Table IV); lane count multiplies physical links,
// not per-link bandwidth, exactly as for torus rings.
type DimSpec struct {
	Kind DimKind
	// Size is the number of NPUs in one group of this dimension.
	Size int
	// Lanes counts parallel fabric planes: unidirectional local rings /
	// bidirectional ring pairs (KindRing, dimension 0 / beyond),
	// per-pair links (KindFullyConnected), or switches (KindSwitch).
	Lanes int
	// Class is the link class for every link this dimension owns.
	Class LinkClass
}

func (s DimSpec) String() string {
	return fmt.Sprintf("%s%d", s.Kind, s.Size)
}

// fcKey addresses one fully-connected link: lane plus ordered endpoints.
type fcKey struct {
	lane     int
	src, dst Node
}

// Hierarchical composes an ordered list of dimension specs into one
// topology: dimension 0 is the intra-package ("local") dimension, higher
// dimensions connect NPUs with equal lower coordinates across groups —
// the compositional network generalization of ASTRA-sim 2.0. Ring
// dimensions connect each group as parallel unidirectional rings,
// fully-connected dimensions add a dedicated unidirectional link per
// ordered pair per lane, and switch dimensions add per-group switch nodes
// with up/down links per lane. An all-ring composition is the
// N-dimensional hierarchical torus (the paper's 4D/5D future-work
// topologies): the "MxA1x...xAd" topology spec builds one here.
//
// Node numbering: with sizes [S0, S1, ..., Sd] the package index is
// mixed-radix over (S1..Sd) with S1 fastest, and NPU id = pkg*S0 + local.
// Switch nodes occupy ids [NumNPUs, NumNodes).
type Hierarchical struct {
	specs   []DimSpec
	npus    int
	chans   []int // scheduling channels per dimension
	strides []int // node-id distance between neighbours along each dimension

	links []LinkSpec
	// groups[dim][slot] lists each group's members in order;
	// rings[dim][slot][channel] for ring dimensions (nil otherwise);
	// slots[dim] maps a group key to its group slot.
	groups [][][]Node
	rings  [][][]*Ring
	slots  []map[int]int
	// swUp/swDown[dim][npu][lane] for switch dimensions (nil otherwise).
	swUp, swDown []map[Node][]LinkID
	// fc[dim] for fully-connected dimensions (nil otherwise).
	fc []map[fcKey]LinkID

	switches int // total switch nodes across all switch dimensions
}

// NewHierarchical builds the composition described by specs (at least one
// dimension). Unit dimensions (Size 1) are legal and own no links.
func NewHierarchical(specs []DimSpec) (*Hierarchical, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("topology: hierarchical composition needs at least one dimension")
	}
	h := &Hierarchical{specs: append([]DimSpec(nil), specs...)}
	sizes := make([]int, len(specs))
	for i, s := range specs {
		switch s.Kind {
		case KindRing, KindFullyConnected, KindSwitch:
		default:
			return nil, fmt.Errorf("topology: dimension %d has unknown kind %v", i, s.Kind)
		}
		if s.Size <= 0 {
			return nil, fmt.Errorf("topology: dimension %d (%s) has invalid size %d", i, s.Kind, s.Size)
		}
		if s.Lanes <= 0 {
			return nil, fmt.Errorf("topology: dimension %d (%s) has invalid lane count %d", i, s.Kind, s.Lanes)
		}
		switch s.Class {
		case IntraPackage, InterPackage, ScaleOutLink:
		default:
			return nil, fmt.Errorf("topology: dimension %d (%s) has unknown link class %v", i, s.Kind, s.Class)
		}
		ch := s.Lanes
		if s.Kind == KindRing && i > 0 {
			ch = 2 * s.Lanes // split bidirectional rings
		}
		h.chans = append(h.chans, ch)
		sizes[i] = s.Size
	}
	var err error
	if h.npus, err = npuCount(sizes...); err != nil {
		return nil, err
	}
	stride := 1
	h.strides = make([]int, len(specs))
	for i := range specs {
		h.strides[i] = stride
		stride *= specs[i].Size
	}
	h.build()
	return h, nil
}

func (h *Hierarchical) addLink(src, dst Node, class LinkClass) LinkID {
	id := LinkID(len(h.links))
	h.links = append(h.links, LinkSpec{ID: id, Src: src, Dst: dst, Class: class})
	return id
}

func (h *Hierarchical) makeRing(d Dim, channel int, base []Node, class LinkClass) *Ring {
	nodes := ringDirection(base, channel)
	r := &Ring{Dim: d, Channel: channel, Nodes: nodes}
	if len(nodes) > 1 {
		r.Links = make([]LinkID, len(nodes))
		for i := range nodes {
			r.Links[i] = h.addLink(nodes[i], nodes[(i+1)%len(nodes)], class)
		}
	}
	return r
}

// dimOf maps a dimension index to its Dim identifier (local first, then
// the inter-package axes in declaration order).
func dimOf(i int) Dim {
	if i == 0 {
		return DimLocal
	}
	return AxisDim(i - 1)
}

// groupKey identifies the group a node belongs to along a dimension: its
// lowest member, the node with the same coordinates except a zero one
// along dim. A node's coordinate along dim is n / stride % size.
func (h *Hierarchical) groupKey(dim int, n Node) int {
	if n < 0 || int(n) >= h.NumNPUs() {
		panic(fmt.Sprintf("topology: node %d out of range for %s", n, h.Name()))
	}
	stride := h.strides[dim]
	return int(n) - int(n)/stride%h.specs[dim].Size*stride
}

// dimGroup returns the ordered nodes sharing every coordinate with n
// except along the given dimension.
func (h *Hierarchical) dimGroup(dim int, n Node) []Node {
	first := h.groupKey(dim, n)
	out := make([]Node, h.specs[dim].Size)
	for v := range out {
		out[v] = Node(first + v*h.strides[dim])
	}
	return out
}

func (h *Hierarchical) build() {
	n := len(h.specs)
	h.groups = make([][][]Node, n)
	h.rings = make([][][]*Ring, n)
	h.slots = make([]map[int]int, n)
	h.swUp = make([]map[Node][]LinkID, n)
	h.swDown = make([]map[Node][]LinkID, n)
	h.fc = make([]map[fcKey]LinkID, n)
	for dim, spec := range h.specs {
		numGroups := h.NumNPUs() / spec.Size
		seen := make(map[int]int, numGroups) // groupKey -> slot
		h.groups[dim] = make([][]Node, numGroups)
		switch spec.Kind {
		case KindRing:
			h.rings[dim] = make([][]*Ring, numGroups)
		case KindSwitch:
			h.swUp[dim] = make(map[Node][]LinkID, h.NumNPUs())
			h.swDown[dim] = make(map[Node][]LinkID, h.NumNPUs())
		case KindFullyConnected:
			h.fc[dim] = make(map[fcKey]LinkID)
		}
		for v := 0; v < h.NumNPUs(); v++ {
			key := h.groupKey(dim, Node(v))
			if _, ok := seen[key]; ok {
				continue
			}
			slot := len(seen)
			seen[key] = slot
			base := h.dimGroup(dim, Node(v))
			h.groups[dim][slot] = base
			switch spec.Kind {
			case KindRing:
				chans := make([]*Ring, h.chans[dim])
				for c := range chans {
					chans[c] = h.makeRing(dimOf(dim), c, base, spec.Class)
				}
				h.rings[dim][slot] = chans
			case KindSwitch:
				h.buildSwitchGroup(dim, spec, base)
			case KindFullyConnected:
				h.buildFCGroup(dim, spec, base)
			}
		}
		h.slots[dim] = seen
	}
}

// buildSwitchGroup allocates the group's switch nodes (one per lane) and
// the up/down links of every member, in group order.
func (h *Hierarchical) buildSwitchGroup(dim int, spec DimSpec, base []Node) {
	if len(base) <= 1 {
		return // a unit group schedules no traffic and needs no switch
	}
	first := Node(h.NumNPUs() + h.switches)
	h.switches += spec.Lanes
	for _, m := range base {
		up := make([]LinkID, spec.Lanes)
		down := make([]LinkID, spec.Lanes)
		for lane := 0; lane < spec.Lanes; lane++ {
			sw := first + Node(lane)
			up[lane] = h.addLink(m, sw, spec.Class)
			down[lane] = h.addLink(sw, m, spec.Class)
		}
		h.swUp[dim][m] = up
		h.swDown[dim][m] = down
	}
}

// buildFCGroup adds one unidirectional link per ordered pair per lane.
func (h *Hierarchical) buildFCGroup(dim int, spec DimSpec, base []Node) {
	for lane := 0; lane < spec.Lanes; lane++ {
		for _, src := range base {
			for _, dst := range base {
				if src == dst {
					continue
				}
				h.fc[dim][fcKey{lane, src, dst}] = h.addLink(src, dst, spec.Class)
			}
		}
	}
}

// Name implements Topology. An all-ring composition with the default
// link classes is the N-dimensional torus and prints as one ("2x2x2x2
// torus"); any other composition lists its dimensions ("sw8+fc4+ring4
// hier").
func (h *Hierarchical) Name() string {
	dims := make([]string, len(h.specs))
	sizes := make([]string, len(h.specs))
	torus := true
	for i, s := range h.specs {
		dims[i], sizes[i] = s.String(), fmt.Sprint(s.Size)
		torus = torus && s.Kind == KindRing && s.Class == DefaultDimClass(i)
	}
	if torus {
		return strings.Join(sizes, "x") + " torus"
	}
	return strings.Join(dims, "+") + " hier"
}

// NumNPUs implements Topology.
func (h *Hierarchical) NumNPUs() int { return h.npus }

// NumNodes implements Topology.
func (h *Hierarchical) NumNodes() int { return h.NumNPUs() + h.switches }

// isPow2 reports whether v is a power of two (v > 0).
func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// Dims implements Topology: declaration order, local dimension first.
func (h *Hierarchical) Dims() []DimInfo {
	out := make([]DimInfo, len(h.specs))
	for i, s := range h.specs {
		out[i] = DimInfo{
			Dim:      dimOf(i),
			Size:     s.Size,
			Channels: h.chans[i],
			Direct:   s.Kind != KindRing,
			Halving:  s.Kind == KindSwitch && s.Size > 1 && isPow2(s.Size),
		}
	}
	return out
}

// dimIndex inverts dimOf.
func (h *Hierarchical) dimIndex(d Dim) int {
	for i := range h.specs {
		if dimOf(i) == d {
			return i
		}
	}
	panic(fmt.Sprintf("topology: %s has no dimension %v", h.Name(), d))
}

// Group implements Topology. The returned slice is shared and must not be
// modified.
func (h *Hierarchical) Group(d Dim, n Node) []Node {
	dim := h.dimIndex(d)
	return h.groups[dim][h.slots[dim][h.groupKey(dim, n)]]
}

// RingOf implements Topology. Panics on non-ring dimensions.
func (h *Hierarchical) RingOf(d Dim, n Node, channel int) *Ring {
	dim := h.dimIndex(d)
	if h.specs[dim].Kind != KindRing {
		panic(fmt.Sprintf("topology: dimension %v of %s is %s, not a ring", d, h.Name(), h.specs[dim].Kind))
	}
	slot := h.slots[dim][h.groupKey(dim, n)]
	chans := h.rings[dim][slot]
	return chans[channel%len(chans)]
}

// PathLinks implements Topology: ring successor hop on ring dimensions,
// the dedicated pair link on fully-connected dimensions (lanes spread by
// channel), and an up/down switch traversal on switch dimensions (the
// switch is picked by tournament round plus channel, spreading a group's
// simultaneous exchanges across lanes exactly like the global-switch
// topology).
func (h *Hierarchical) PathLinks(d Dim, channel int, src, dst Node) []LinkID {
	dim := h.dimIndex(d)
	spec := h.specs[dim]
	switch spec.Kind {
	case KindRing:
		r := h.RingOf(d, src, channel)
		if next := r.Next(src); next != dst {
			panic(fmt.Sprintf("topology: %d is not %d's successor on %v ring %d", dst, src, d, channel))
		}
		return []LinkID{r.LinkFrom(src)}
	case KindFullyConnected:
		lane := channel % spec.Lanes
		id, ok := h.fc[dim][fcKey{lane, src, dst}]
		if !ok {
			panic(fmt.Sprintf("topology: no %v link %d->%d (lane %d) in %s", d, src, dst, lane, h.Name()))
		}
		return []LinkID{id}
	default: // KindSwitch
		si, di := h.switchIndices(d, dim, src, dst)
		lane := (matchRound(si, di, spec.Size) + channel) % spec.Lanes
		return []LinkID{h.swUp[dim][src][lane], h.swDown[dim][dst][lane]}
	}
}

// switchIndices returns src's and dst's positions in their group along
// dimension dim (of Dim d), panicking unless they are distinct members of
// one group: nodes that differ only in their coordinate along dim.
func (h *Hierarchical) switchIndices(d Dim, dim int, src, dst Node) (si, di int) {
	stride, size := h.strides[dim], h.specs[dim].Size
	first := h.groupKey(dim, src)
	si = (int(src) - first) / stride
	di = (int(dst) - first) / stride
	if int(dst) < first || di >= size || int(dst) != first+di*stride || si == di {
		panic(fmt.Sprintf("topology: %d and %d do not share %v group in %s", src, dst, d, h.Name()))
	}
	return si, di
}

// Links implements Topology.
func (h *Hierarchical) Links() []LinkSpec { return h.links }

var _ Topology = (*Hierarchical)(nil)
