package graph

import (
	"astrasim/internal/eventq"
	"astrasim/internal/system"
)

// LayerStats accumulates one layer's costs over the whole run.
type LayerStats struct {
	Name string
	// ComputeCycles sums forward, input-gradient and weight-gradient
	// compute across all passes.
	ComputeCycles uint64
	// Raw collective durations (creation to completion), regardless of
	// how much was hidden under compute.
	FwdCommCycles, IGCommCycles, WGCommCycles uint64
	// ExposedCycles is stall time: cycles the training loop could not
	// proceed because one of this layer's collectives (plus its local
	// update) had not finished.
	ExposedCycles uint64
	// Handles retains the layer's collectives for per-phase breakdowns
	// (Fig. 16).
	FwdHandles, IGHandles, WGHandles []*system.Handle
}

// TotalCommCycles sums the raw collective time of all three passes.
func (s LayerStats) TotalCommCycles() uint64 {
	return s.FwdCommCycles + s.IGCommCycles + s.WGCommCycles
}

// Result is the outcome of a training simulation.
type Result struct {
	// TotalCycles is the wall-clock simulated time for all passes,
	// including the final weight-update drain.
	TotalCycles eventq.Time
	Passes      int
	Layers      []LayerStats
}

// TotalCompute sums per-layer compute cycles.
func (r Result) TotalCompute() uint64 {
	var t uint64
	for _, l := range r.Layers {
		t += l.ComputeCycles
	}
	return t
}

// TotalExposed sums per-layer exposed communication.
func (r Result) TotalExposed() uint64 {
	var t uint64
	for _, l := range r.Layers {
		t += l.ExposedCycles
	}
	return t
}

// TotalComm sums per-layer raw communication.
func (r Result) TotalComm() uint64 {
	var t uint64
	for _, l := range r.Layers {
		t += l.TotalCommCycles()
	}
	return t
}

// ExposedRatio is exposed communication as a fraction of total runtime
// (the Fig. 17/18 metric).
func (r Result) ExposedRatio() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return float64(r.TotalExposed()) / float64(r.TotalCycles)
}
