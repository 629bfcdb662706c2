package topology

import "fmt"

// A2AConfig sets the local-ring and switch multiplicities.
type A2AConfig struct {
	LocalRings     int
	GlobalSwitches int
}

// DefaultA2AConfig matches Fig. 3b's two global switches and Table IV's
// two local rings.
func DefaultA2AConfig() A2AConfig { return A2AConfig{LocalRings: 2, GlobalSwitches: 2} }

// NewA2A builds the MxN hierarchical alltoall topology of Fig. 3b: M NPUs
// per package connected by unidirectional local rings, and N packages
// connected all-to-all through a set of global switches. Every NPU has
// one inter-package link to every global switch (up and down), and the
// package dimension has one channel per switch (paper §IV-B: "the number
// of global switches determine the number of LSQs for the alltoall
// dimension").
//
// NPU ids are p*M + l as in the torus; switch s has node id NumNPUs + s.
func NewA2A(local, packages int, cfg A2AConfig) (*Fabric, error) {
	if local <= 0 || packages <= 0 {
		return nil, fmt.Errorf("topology: invalid alltoall size %dx%d", local, packages)
	}
	if _, err := npuCount(local, packages); err != nil {
		return nil, err
	}
	if cfg.LocalRings <= 0 || cfg.GlobalSwitches <= 0 {
		return nil, fmt.Errorf("topology: ring/switch counts must be positive, got %+v", cfg)
	}
	M, N := local, packages
	f := newFabric(fmt.Sprintf("%dx%d alltoall", M, N), M*N)
	ld := f.addDim(DimInfo{Dim: DimLocal, Size: M, Channels: cfg.LocalRings}, KindRing, IntraPackage)
	pd := f.addDim(DimInfo{Dim: DimPackage, Size: N, Channels: cfg.GlobalSwitches, Direct: true}, KindSwitch, InterPackage)
	for p := 0; p < N; p++ {
		f.addGroup(ld, span(p*M, M, 1))
	}
	for l := 0; l < M; l++ {
		f.addGroup(pd, span(l, N, M))
	}
	first := f.addSwitches(cfg.GlobalSwitches)
	for n := Node(0); int(n) < M*N; n++ {
		for s := 0; s < cfg.GlobalSwitches; s++ {
			f.addPort(pd, n, s, first+Node(s))
		}
	}
	return f, nil
}
