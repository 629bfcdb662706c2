// Package cli resolves a run's configuration for every surface that
// configures one. RunSpec is the one resolved form: the topology spec,
// ring and switch counts, the run-level system and network parameters,
// the fault plan and the audit switch. It binds the command-line flags,
// holds the table of unsupported combinations (Validate), builds the
// topology and simulation instances, and produces the canonical form a
// content hash is taken over. The package also holds the shared grammar
// helpers: size strings with binary suffixes and topology specifications
// ("MxNxK" torus, "MxNxKxL..." N-dimensional torus, "a2a:MxN"
// hierarchical alltoall, "sw:", "so:" and "hier:" compositions).
package cli

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"astrasim/internal/config"
	"astrasim/internal/topology"
)

// ParseSize parses "64MB"-style sizes (B/KB/MB/GB binary suffixes). The
// result is always positive: zero, negative, and int64-overflowing sizes
// are errors, never wrapped values.
func ParseSize(s string) (int64, error) {
	mult := int64(1)
	up := strings.ToUpper(strings.TrimSpace(s))
	switch {
	case strings.HasSuffix(up, "GB"):
		mult, up = 1<<30, strings.TrimSuffix(up, "GB")
	case strings.HasSuffix(up, "MB"):
		mult, up = 1<<20, strings.TrimSuffix(up, "MB")
	case strings.HasSuffix(up, "KB"):
		mult, up = 1<<10, strings.TrimSuffix(up, "KB")
	case strings.HasSuffix(up, "B"):
		up = strings.TrimSuffix(up, "B")
	}
	v, err := strconv.ParseInt(strings.TrimSpace(up), 10, 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("cli: bad size %q", s)
	}
	if v > math.MaxInt64/mult {
		return 0, fmt.Errorf("cli: size %q overflows int64", s)
	}
	return v * mult, nil
}

// ParseSizeList parses a comma-separated list of ParseSize entries,
// returning the parsed sizes and the trimmed source tokens in list order.
// Empty entries and invalid sizes are errors naming the offending token
// and its 1-based position.
func ParseSizeList(s string) ([]int64, []string, error) {
	specs := strings.Split(s, ",")
	sizes := make([]int64, len(specs))
	tokens := make([]string, len(specs))
	for i, spec := range specs {
		tok := strings.TrimSpace(spec)
		if tok == "" {
			return nil, nil, fmt.Errorf("cli: size list %q: entry %d is empty", s, i+1)
		}
		v, err := ParseSize(tok)
		if err != nil {
			return nil, nil, fmt.Errorf("cli: size list entry %d (%q): %w", i+1, tok, err)
		}
		sizes[i], tokens[i] = v, tok
	}
	return sizes, tokens, nil
}

// ParseDims splits a "2x4x4"-style list of positive dimensions.
func ParseDims(s string) ([]int, error) {
	parts := strings.Split(s, "x")
	dims := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("cli: topology %q: bad dimension %q", s, p)
		}
		dims[i] = v
	}
	return dims, nil
}

// ParseHierSpec parses the dimension list of a "hier:<spec>" topology: a
// comma-separated sequence of <kind><size>[x<lanes>][@<class>] entries,
// ordered local dimension first. Kinds are "ring", "fc" (fully
// connected), and "sw" (switch); classes are "local" (intra-package),
// "pkg" (inter-package), and "so" (scale-out). Lanes default to
// opts.LocalRings for the first ring dimension, 2 for later ring
// dimensions, opts.GlobalSwitches for switch dimensions, and 1 for fully
// connected dimensions; the class defaults to local for dimension 0 and
// pkg for the rest. Errors name the offending token.
func ParseHierSpec(spec string, opts TopologyOptions) ([]topology.DimSpec, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("cli: hier topology needs at least one dimension")
	}
	tokens := strings.Split(spec, ",")
	specs := make([]topology.DimSpec, len(tokens))
	for i, raw := range tokens {
		tok := strings.TrimSpace(raw)
		if tok == "" {
			return nil, fmt.Errorf("cli: hier topology %q: dimension %d is empty", spec, i+1)
		}
		body, classStr, hasClass := strings.Cut(tok, "@")
		var kind topology.DimKind
		var rest string
		switch {
		case strings.HasPrefix(body, "ring"):
			kind, rest = topology.KindRing, body[len("ring"):]
		case strings.HasPrefix(body, "fc"):
			kind, rest = topology.KindFullyConnected, body[len("fc"):]
		case strings.HasPrefix(body, "sw"):
			kind, rest = topology.KindSwitch, body[len("sw"):]
		default:
			return nil, fmt.Errorf("cli: hier topology: dimension %q: want kind ring, fc, or sw", tok)
		}
		sizeStr, lanesStr, hasLanes := strings.Cut(rest, "x")
		size, err := strconv.Atoi(sizeStr)
		if err != nil || size <= 0 {
			return nil, fmt.Errorf("cli: hier topology: dimension %q: bad size %q", tok, sizeStr)
		}
		lanes := 0
		switch {
		case hasLanes:
			lanes, err = strconv.Atoi(lanesStr)
			if err != nil || lanes <= 0 {
				return nil, fmt.Errorf("cli: hier topology: dimension %q: bad lane count %q", tok, lanesStr)
			}
		case kind == topology.KindRing && i == 0:
			lanes = opts.LocalRings
		case kind == topology.KindRing:
			lanes = 2
		case kind == topology.KindSwitch:
			lanes = opts.GlobalSwitches
		default:
			lanes = 1
		}
		class := topology.DefaultDimClass(i)
		if hasClass {
			switch classStr {
			case "local":
				class = topology.IntraPackage
			case "pkg":
				class = topology.InterPackage
			case "so":
				class = topology.ScaleOutLink
			default:
				return nil, fmt.Errorf("cli: hier topology: dimension %q: bad link class %q (want local, pkg, or so)", tok, classStr)
			}
		}
		specs[i] = topology.DimSpec{Kind: kind, Size: size, Lanes: lanes, Class: class}
	}
	return specs, nil
}

// ParseRemoteMem parses the -remote-mem flag: "bw=<bytes/cycle>" with an
// optional ",lat=<cycles>" (e.g. "bw=50,lat=600"). Errors name the
// offending token.
func ParseRemoteMem(s string) (bw float64, lat uint64, err error) {
	seenBW := false
	for _, raw := range strings.Split(s, ",") {
		tok := strings.TrimSpace(raw)
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return 0, 0, fmt.Errorf("cli: remote-mem %q: entry %q is not key=value", s, tok)
		}
		switch key {
		case "bw":
			bw, err = strconv.ParseFloat(val, 64)
			if err != nil || bw <= 0 {
				return 0, 0, fmt.Errorf("cli: remote-mem %q: bad bandwidth %q (want positive bytes/cycle)", s, val)
			}
			seenBW = true
		case "lat":
			lat, err = strconv.ParseUint(val, 10, 64)
			if err != nil {
				return 0, 0, fmt.Errorf("cli: remote-mem %q: bad latency %q (want cycles)", s, val)
			}
		default:
			return 0, 0, fmt.Errorf("cli: remote-mem %q: unknown key %q (want bw or lat)", s, key)
		}
	}
	if !seenBW {
		return 0, 0, fmt.Errorf("cli: remote-mem %q: missing required bw=<bytes/cycle>", s)
	}
	return bw, lat, nil
}

// TopologyOptions carries the ring and switch multiplicities a topology
// spec is built with.
type TopologyOptions struct {
	LocalRings      int
	HorizontalRings int
	VerticalRings   int
	GlobalSwitches  int
	// LocalSwitches is the per-package switch count of the switched
	// ("sw:") topology.
	LocalSwitches int
}

// DefaultTopologyOptions matches Table IV, with one local switch per
// package.
func DefaultTopologyOptions() TopologyOptions {
	return TopologyOptions{LocalRings: 2, HorizontalRings: 2, VerticalRings: 2, GlobalSwitches: 2, LocalSwitches: 1}
}

// Torus returns the 3D torus ring counts.
func (o TopologyOptions) Torus() topology.TorusConfig {
	return topology.TorusConfig{LocalRings: o.LocalRings, HorizontalRings: o.HorizontalRings, VerticalRings: o.VerticalRings}
}

// TorusSpecs returns the all-ring composition of an N-dimensional torus
// with the given axis sizes, local axis first: the local, vertical and
// horizontal ring counts on the first three axes, 2 bidirectional rings on
// every further axis, and the default link classes.
func (o TopologyOptions) TorusSpecs(sizes []int) []topology.DimSpec {
	rings := []int{o.LocalRings, o.VerticalRings, o.HorizontalRings}
	specs := make([]topology.DimSpec, len(sizes))
	for i, size := range sizes {
		lanes := 2
		if i < len(rings) {
			lanes = rings[i]
		}
		specs[i] = topology.DimSpec{Kind: topology.KindRing, Size: size, Lanes: lanes, Class: topology.DefaultDimClass(i)}
	}
	return specs
}

// BuildTopology parses a topology spec and constructs it:
//
//	"MxNxK"        hierarchical 3D torus (local x horizontal x vertical)
//	"MxA1x...xAd"  N-dimensional torus for d != 2 inter axes: the
//	               all-ring composition opts.TorusSpecs describes
//	"a2a:MxN"      hierarchical alltoall with opts.GlobalSwitches switches
//	"sw:MxN"       switch-based (NVSwitch-style): opts.LocalSwitches
//	               per-package switches plus opts.GlobalSwitches global
//	               switches
//	"so:MxNxK/P"   P pods of an MxNxK torus over a scale-out spine with
//	               opts.GlobalSwitches spine switches
//	"hier:..."     compositional N-dim topology: comma-separated
//	               <kind><size>[x<lanes>][@<class>] dimensions (see
//	               ParseHierSpec), e.g. "hier:sw8,fc4,ring32" for a
//	               DGX-like NVSwitch + multi-rail + ring scale-out
//
// The *config.System argument is unused: the topology's shape lives only
// in the returned topology.Topology. It stays for existing callers.
func BuildTopology(spec string, opts TopologyOptions, _ *config.System) (topology.Topology, error) {
	if hierSpec, ok := strings.CutPrefix(spec, "hier:"); ok {
		specs, err := ParseHierSpec(hierSpec, opts)
		if err != nil {
			return nil, err
		}
		return topology.NewHierarchical(specs)
	}
	if swSpec, ok := strings.CutPrefix(spec, "sw:"); ok {
		dims, err := ParseDims(swSpec)
		if err != nil {
			return nil, err
		}
		if len(dims) != 2 {
			return nil, fmt.Errorf("cli: switched topology %q: want MxN", spec)
		}
		return topology.NewSwitched(dims[0], dims[1], topology.SwitchedConfig{
			LocalSwitches: opts.LocalSwitches, GlobalSwitches: opts.GlobalSwitches})
	}
	if soSpec, ok := strings.CutPrefix(spec, "so:"); ok {
		podSpec, podsStr, ok := strings.Cut(soSpec, "/")
		if !ok {
			return nil, fmt.Errorf("cli: scale-out topology %q: want so:MxNxK/pods", spec)
		}
		dims, err := ParseDims(podSpec)
		if err != nil {
			return nil, err
		}
		if len(dims) != 3 {
			return nil, fmt.Errorf("cli: scale-out pod %q: want MxNxK", podSpec)
		}
		pods, err := strconv.Atoi(podsStr)
		if err != nil || pods <= 1 {
			return nil, fmt.Errorf("cli: scale-out pods %q: want an integer >= 2", podsStr)
		}
		pod, err := topology.NewTorus(dims[0], dims[1], dims[2], opts.Torus())
		if err != nil {
			return nil, err
		}
		return topology.NewScaleOut(pod, pods, opts.GlobalSwitches)
	}
	if a2aSpec, ok := strings.CutPrefix(spec, "a2a:"); ok {
		dims, err := ParseDims(a2aSpec)
		if err != nil {
			return nil, err
		}
		if len(dims) != 2 {
			return nil, fmt.Errorf("cli: alltoall topology %q: want MxN", spec)
		}
		return topology.NewA2A(dims[0], dims[1], topology.A2AConfig{
			LocalRings: opts.LocalRings, GlobalSwitches: opts.GlobalSwitches})
	}
	dims, err := ParseDims(spec)
	if err != nil {
		return nil, err
	}
	switch {
	case len(dims) < 2:
		return nil, fmt.Errorf("cli: topology %q: want at least local x axis", spec)
	case len(dims) == 3:
		return topology.NewTorus(dims[0], dims[1], dims[2], opts.Torus())
	default:
		return topology.NewHierarchical(opts.TorusSpecs(dims))
	}
}
