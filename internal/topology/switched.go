package topology

import "fmt"

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

// NewSwitched builds the MxN switch-based scale-up topology from §III-C's
// future-work list ("expanding this study to other scale-up topologies
// such as 4D/5D torus, switch-based, etc.") — an NVSwitch/DGX-style
// system: the M NPUs of each package connect all-to-all through
// per-package local switches (instead of rings), and packages connect
// all-to-all through global switches exactly like the hierarchical
// alltoall topology. Both dimensions are direct.
//
// Node numbering: NPU = p*M + l; local switch s of package p =
// NumNPUs + p*LocalSwitches + s; global switch g = NumNPUs +
// N*LocalSwitches + g.
func NewSwitched(local, packages int, cfg SwitchedConfig) (*Fabric, error) {
	if local <= 0 || packages <= 0 {
		return nil, fmt.Errorf("topology: invalid switched size %dx%d", local, packages)
	}
	if _, err := npuCount(local, packages); err != nil {
		return nil, err
	}
	if cfg.LocalSwitches <= 0 || cfg.GlobalSwitches <= 0 {
		return nil, fmt.Errorf("topology: switch counts must be positive, got %+v", cfg)
	}
	M, N := local, packages
	LS, GS := cfg.LocalSwitches, cfg.GlobalSwitches
	f := newFabric(fmt.Sprintf("%dx%d switched", M, N), M*N)
	ld := f.addDim(DimInfo{Dim: DimLocal, Size: M, Channels: LS, Direct: true}, KindSwitch, IntraPackage)
	pd := f.addDim(DimInfo{Dim: DimPackage, Size: N, Channels: GS, Direct: true}, KindSwitch, InterPackage)
	for p := 0; p < N; p++ {
		f.addGroup(ld, span(p*M, M, 1))
	}
	for l := 0; l < M; l++ {
		f.addGroup(pd, span(l, N, M))
	}
	localSw, globalSw := f.addSwitches(N*LS), f.addSwitches(GS)
	for n := Node(0); int(n) < M*N; n++ {
		p := int(n) / M
		for s := 0; s < LS; s++ {
			f.addPort(ld, n, s, localSw+Node(p*LS+s))
		}
		for g := 0; g < GS; g++ {
			f.addPort(pd, n, g, globalSw+Node(g))
		}
	}
	return f, nil
}
