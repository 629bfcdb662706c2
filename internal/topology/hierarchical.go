package topology

import (
	"fmt"
	"strings"
)

// DimKind selects the connectivity pattern of one Fabric dimension (the
// ASTRA-sim 2.0 per-dimension network types).
type DimKind int

const (
	// KindRing connects each group as parallel unidirectional rings
	// (split-bidirectional beyond dimension 0, as on the 3D torus).
	KindRing DimKind = iota
	// KindFullyConnected gives every ordered pair in a group a dedicated
	// unidirectional link per lane (direct single-step exchange).
	KindFullyConnected
	// KindSwitch connects each group through switch nodes, one port per
	// NPU and lane (lanes = switch count); NewHierarchical gives every
	// group its own switches, and its power-of-two switch groups schedule
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

// DimSpec describes one dimension of a NewHierarchical composition. The
// link class selects the bandwidth/latency/efficiency/packet-size bundle
// the network layer assigns (Table IV); lane count multiplies physical
// links, not per-link bandwidth, exactly as for torus rings.
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

// NewHierarchical composes an ordered list of dimension specs (at least
// one) into one topology: dimension 0 is the intra-package ("local")
// dimension, higher dimensions connect NPUs with equal lower coordinates
// across groups — the compositional network generalization of ASTRA-sim
// 2.0. Ring dimensions connect each group as parallel unidirectional
// rings (split-bidirectional beyond dimension 0), fully-connected
// dimensions add a dedicated unidirectional link per ordered pair per
// lane, and switch dimensions add one switch node per lane to every
// group of more than one NPU. An all-ring composition is the
// N-dimensional hierarchical torus (the paper's 4D/5D future-work
// topologies): the "MxA1x...xAd" topology spec builds one here. Unit
// dimensions (Size 1) are legal and own no links.
//
// Node numbering: with sizes [S0, S1, ..., Sd] the package index is
// mixed-radix over (S1..Sd) with S1 fastest, and NPU id = pkg*S0 + local.
// Switch nodes occupy ids [NumNPUs, NumNodes), allocated group by group.
func NewHierarchical(specs []DimSpec) (*Fabric, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("topology: hierarchical composition needs at least one dimension")
	}
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
		sizes[i] = s.Size
	}
	npus, err := npuCount(sizes...)
	if err != nil {
		return nil, err
	}
	f := newFabric(hierName(specs), npus)
	stride := 1
	for i, s := range specs {
		ch := s.Lanes
		if s.Kind == KindRing && i > 0 {
			ch = 2 * s.Lanes // split bidirectional rings
		}
		d := f.addDim(DimInfo{
			Dim:      dimOf(i),
			Size:     s.Size,
			Channels: ch,
			Direct:   s.Kind != KindRing,
			Halving:  s.Kind == KindSwitch && s.Size > 1 && isPow2(s.Size),
		}, s.Kind, s.Class)
		// Each group is listed from its lowest member, the node whose
		// coordinate along this dimension, n / stride % size, is zero.
		for n := 0; n < npus; n++ {
			if n/stride%s.Size != 0 {
				continue
			}
			g := span(n, s.Size, stride)
			f.addGroup(d, g)
			if s.Kind == KindSwitch && s.Size > 1 {
				first := f.addSwitches(s.Lanes)
				for _, m := range g {
					for lane := 0; lane < s.Lanes; lane++ {
						f.addPort(d, m, lane, first+Node(lane))
					}
				}
			}
		}
		stride *= s.Size
	}
	return f, nil
}

// dimOf maps a dimension index to its Dim identifier (local first, then
// the inter-package axes in declaration order).
func dimOf(i int) Dim {
	if i == 0 {
		return DimLocal
	}
	return AxisDim(i - 1)
}

// isPow2 reports whether v is a power of two (v > 0).
func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// hierName names a composition. An all-ring composition with the default
// link classes, the default two rings per dimension, and one or at least
// three inter-package axes is the N-dimensional torus its "MxA1x...xAd"
// spec builds with default options, and prints as one ("2x2x2x2 torus").
// Any other composition lists its dimensions ("sw8+fc4+ring4 hier"),
// including the all-ring one with two axes: "MxNxK torus" names the 3D
// torus, whose numbering differs. A ring dimension with other than two
// rings names its count ("ring2x1+ring4 hier"), so a torus name always
// means the default ring counts.
func hierName(specs []DimSpec) string {
	dims := make([]string, len(specs))
	sizes := make([]string, len(specs))
	torus := len(specs) == 2 || len(specs) > 3
	for i, s := range specs {
		dims[i], sizes[i] = s.String(), fmt.Sprint(s.Size)
		if s.Kind == KindRing && s.Lanes != 2 {
			dims[i] += fmt.Sprintf("x%d", s.Lanes)
		}
		torus = torus && s.Kind == KindRing && s.Lanes == 2 && s.Class == DefaultDimClass(i)
	}
	if torus {
		return strings.Join(sizes, "x") + " torus"
	}
	return strings.Join(dims, "+") + " hier"
}
