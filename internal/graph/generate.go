package graph

import (
	"fmt"

	"astrasim/internal/collectives"
)

// PipelineBubbleRatio derives the pipeline bubble fraction from a 1F1B
// replay result: the idle share across stage lanes, 1 - sum(compute) /
// (stages x total) — comparable to workload.PipelineResult.BubbleRatio.
func PipelineBubbleRatio(res Result, stages int) float64 {
	if res.TotalCycles == 0 || stages == 0 {
		return 0
	}
	return 1 - float64(res.TotalCompute())/(float64(stages)*float64(res.TotalCycles))
}

// Microbench builds a width x depth grid of collectives: width
// independent chains (stats rows "lane0".."laneN"), each running depth
// sequential ops of the given size — a pure scheduler microbenchmark
// exercising concurrent collectives with per-chain dependencies.
func Microbench(op collectives.Op, bytes int64, width, depth int) (*Graph, error) {
	if width <= 0 || depth <= 0 {
		return nil, fmt.Errorf("graph: microbench needs positive width and depth, got %dx%d", width, depth)
	}
	if bytes <= 0 {
		return nil, fmt.Errorf("graph: microbench needs positive bytes, got %d", bytes)
	}
	g := &Graph{
		Version: FormatVersion,
		Name:    fmt.Sprintf("microbench %v %dB %dx%d", op, bytes, width, depth),
		Passes:  1,
	}
	for w := 0; w < width; w++ {
		prev := ""
		for d := 0; d < depth; d++ {
			n := Node{
				ID: fmt.Sprintf("lane%d/c%d", w, d), Kind: KindComm,
				Layer: fmt.Sprintf("lane%d", w),
				Op:    op.String(), Bytes: bytes, Priority: d,
			}
			if prev != "" {
				n.Deps = []string{prev}
			}
			g.Nodes = append(g.Nodes, n)
			prev = n.ID
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: generated microbench DAG is invalid (generator bug): %w", err)
	}
	return g, nil
}
