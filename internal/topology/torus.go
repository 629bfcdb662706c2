package topology

import "fmt"

// Torus is the hierarchical MxNxK torus of Fig. 3a: M NPUs per package
// connected by unidirectional intra-package rings, and N (horizontal) x K
// (vertical) packages connected by bidirectional inter-package rings, each
// split into two unidirectional rings.
//
// Node numbering: package p = row*N + col (row in [0,K), col in [0,N));
// NPU id = p*M + l for local index l in [0,M).
type Torus struct {
	local, horizontal, vertical int
	// channel counts (unidirectional rings) per dimension
	localCh, horizontalCh, verticalCh int

	links []LinkSpec
	// rings[dim][groupKey][channel]
	localRings      [][]*Ring // [package][channel]
	verticalRings   [][]*Ring // [l*N+col][channel]
	horizontalRings [][]*Ring // [l*K+row][channel]
}

// TorusConfig sets the ring multiplicities. LocalRings counts
// unidirectional rings; HorizontalRings and VerticalRings count
// bidirectional rings (each contributing two unidirectional channels).
type TorusConfig struct {
	LocalRings      int
	HorizontalRings int
	VerticalRings   int
}

// DefaultTorusConfig matches Table IV: 2 unidirectional local rings and 2
// bidirectional rings per inter-package dimension.
func DefaultTorusConfig() TorusConfig {
	return TorusConfig{LocalRings: 2, HorizontalRings: 2, VerticalRings: 2}
}

// NewTorus builds an MxNxK hierarchical torus (local x horizontal x
// vertical) with the given ring multiplicities.
func NewTorus(local, horizontal, vertical int, cfg TorusConfig) (*Torus, error) {
	if local <= 0 || horizontal <= 0 || vertical <= 0 {
		return nil, fmt.Errorf("topology: invalid torus size %dx%dx%d", local, horizontal, vertical)
	}
	if _, err := npuCount(local, horizontal, vertical); err != nil {
		return nil, err
	}
	if cfg.LocalRings <= 0 || cfg.HorizontalRings <= 0 || cfg.VerticalRings <= 0 {
		return nil, fmt.Errorf("topology: ring counts must be positive, got %+v", cfg)
	}
	t := &Torus{
		local:        local,
		horizontal:   horizontal,
		vertical:     vertical,
		localCh:      cfg.LocalRings,
		horizontalCh: 2 * cfg.HorizontalRings,
		verticalCh:   2 * cfg.VerticalRings,
	}
	t.build()
	return t, nil
}

func (t *Torus) addLink(src, dst Node, class LinkClass) LinkID {
	id := LinkID(len(t.links))
	t.links = append(t.links, LinkSpec{ID: id, Src: src, Dst: dst, Class: class})
	return id
}

// makeRing creates one unidirectional ring over base (oriented by channel)
// with dedicated physical links. Rings of size one own no links.
func (t *Torus) makeRing(d Dim, channel int, base []Node, class LinkClass) *Ring {
	nodes := ringDirection(base, channel)
	r := &Ring{Dim: d, Channel: channel, Nodes: nodes}
	if len(nodes) > 1 {
		r.Links = make([]LinkID, len(nodes))
		for i := range nodes {
			r.Links[i] = t.addLink(nodes[i], nodes[(i+1)%len(nodes)], class)
		}
	}
	return r
}

func (t *Torus) build() {
	M, N, K := t.local, t.horizontal, t.vertical
	// Local rings: one group per package.
	t.localRings = make([][]*Ring, N*K)
	for p := 0; p < N*K; p++ {
		base := make([]Node, M)
		for l := 0; l < M; l++ {
			base[l] = Node(p*M + l)
		}
		t.localRings[p] = make([]*Ring, t.localCh)
		for c := 0; c < t.localCh; c++ {
			t.localRings[p][c] = t.makeRing(DimLocal, c, base, IntraPackage)
		}
	}
	// Vertical rings: same local index and column, across rows.
	t.verticalRings = make([][]*Ring, M*N)
	for l := 0; l < M; l++ {
		for col := 0; col < N; col++ {
			base := make([]Node, K)
			for row := 0; row < K; row++ {
				base[row] = Node((row*N+col)*M + l)
			}
			g := l*N + col
			t.verticalRings[g] = make([]*Ring, t.verticalCh)
			for c := 0; c < t.verticalCh; c++ {
				t.verticalRings[g][c] = t.makeRing(DimVertical, c, base, InterPackage)
			}
		}
	}
	// Horizontal rings: same local index and row, across columns.
	t.horizontalRings = make([][]*Ring, M*K)
	for l := 0; l < M; l++ {
		for row := 0; row < K; row++ {
			base := make([]Node, N)
			for col := 0; col < N; col++ {
				base[col] = Node((row*N+col)*M + l)
			}
			g := l*K + row
			t.horizontalRings[g] = make([]*Ring, t.horizontalCh)
			for c := 0; c < t.horizontalCh; c++ {
				t.horizontalRings[g][c] = t.makeRing(DimHorizontal, c, base, InterPackage)
			}
		}
	}
}

// Name implements Topology.
func (t *Torus) Name() string {
	return fmt.Sprintf("%dx%dx%d torus", t.local, t.horizontal, t.vertical)
}

// NumNPUs implements Topology.
func (t *Torus) NumNPUs() int { return t.local * t.horizontal * t.vertical }

// NumNodes implements Topology. A torus has no switches.
func (t *Torus) NumNodes() int { return t.NumNPUs() }

// LocalSize returns M, the NPUs per package.
func (t *Torus) LocalSize() int { return t.local }

// Dims implements Topology: hierarchical phase order is local, vertical,
// horizontal (paper §III-D).
func (t *Torus) Dims() []DimInfo {
	return []DimInfo{
		{Dim: DimLocal, Size: t.local, Channels: t.localCh},
		{Dim: DimVertical, Size: t.vertical, Channels: t.verticalCh},
		{Dim: DimHorizontal, Size: t.horizontal, Channels: t.horizontalCh},
	}
}

// coords decomposes an NPU id.
func (t *Torus) coords(n Node) (l, col, row int) {
	if n < 0 || int(n) >= t.NumNPUs() {
		panic(fmt.Sprintf("topology: node %d out of range for %s", n, t.Name()))
	}
	p := int(n) / t.local
	l = int(n) % t.local
	row = p / t.horizontal
	col = p % t.horizontal
	return l, col, row
}

func (t *Torus) groupRings(d Dim, n Node) []*Ring {
	l, col, row := t.coords(n)
	switch d {
	case DimLocal:
		return t.localRings[row*t.horizontal+col]
	case DimVertical:
		return t.verticalRings[l*t.horizontal+col]
	case DimHorizontal:
		return t.horizontalRings[l*t.vertical+row]
	}
	panic(fmt.Sprintf("topology: torus has no dimension %v", d))
}

// Group implements Topology.
func (t *Torus) Group(d Dim, n Node) []Node {
	return t.groupRings(d, n)[0].Nodes
}

// RingOf implements Topology.
func (t *Torus) RingOf(d Dim, n Node, channel int) *Ring {
	rings := t.groupRings(d, n)
	return rings[channel%len(rings)]
}

// PathLinks implements Topology. On a torus, messages travel one ring hop.
func (t *Torus) PathLinks(d Dim, channel int, src, dst Node) []LinkID {
	r := t.RingOf(d, src, channel)
	if next := r.Next(src); next != dst {
		panic(fmt.Sprintf("topology: %d is not %d's successor on %v ring %d", dst, src, d, channel))
	}
	return []LinkID{r.LinkFrom(src)}
}

// Links implements Topology.
func (t *Torus) Links() []LinkSpec { return t.links }

var _ Topology = (*Torus)(nil)
