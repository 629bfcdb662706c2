package topology

import "fmt"

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

// NewTorus builds the hierarchical MxNxK torus of Fig. 3a (local x
// horizontal x vertical): M NPUs per package connected by unidirectional
// intra-package rings, and N (horizontal) x K (vertical) packages
// connected by bidirectional inter-package rings, each split into two
// unidirectional rings. Phase order is local, vertical, horizontal (paper
// §III-D).
//
// Node numbering: package p = row*N + col (row in [0,K), col in [0,N));
// NPU id = p*M + l for local index l in [0,M).
func NewTorus(local, horizontal, vertical int, cfg TorusConfig) (*Fabric, error) {
	if local <= 0 || horizontal <= 0 || vertical <= 0 {
		return nil, fmt.Errorf("topology: invalid torus size %dx%dx%d", local, horizontal, vertical)
	}
	if _, err := npuCount(local, horizontal, vertical); err != nil {
		return nil, err
	}
	if cfg.LocalRings <= 0 || cfg.HorizontalRings <= 0 || cfg.VerticalRings <= 0 {
		return nil, fmt.Errorf("topology: ring counts must be positive, got %+v", cfg)
	}
	M, N, K := local, horizontal, vertical
	f := newFabric(fmt.Sprintf("%dx%dx%d torus", M, N, K), M*N*K)
	ld := f.addDim(DimInfo{Dim: DimLocal, Size: M, Channels: cfg.LocalRings}, KindRing, IntraPackage)
	vd := f.addDim(DimInfo{Dim: DimVertical, Size: K, Channels: 2 * cfg.VerticalRings}, KindRing, InterPackage)
	hd := f.addDim(DimInfo{Dim: DimHorizontal, Size: N, Channels: 2 * cfg.HorizontalRings}, KindRing, InterPackage)
	for p := 0; p < N*K; p++ {
		f.addGroup(ld, span(p*M, M, 1))
	}
	// Vertical rings: same local index and column, across rows.
	for l := 0; l < M; l++ {
		for col := 0; col < N; col++ {
			f.addGroup(vd, span(col*M+l, K, N*M))
		}
	}
	// Horizontal rings: same local index and row, across columns.
	for l := 0; l < M; l++ {
		for row := 0; row < K; row++ {
			f.addGroup(hd, span(row*N*M+l, N, M))
		}
	}
	return f, nil
}
