package experiments

import (
	"fmt"

	"astrasim/internal/cli"
	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/graph"
	"astrasim/internal/report"
	"astrasim/internal/topology"
	"astrasim/internal/workload"
)

// needsSends is the spec requirement of the studies that replay SEND/RECV
// pipelines (extgraph, extparallel): point-to-point sends need the serial
// engine.
func needsSends(s *cli.RunSpec) error {
	return s.ValidateSends("the study's SEND/RECV pipeline", cli.FlagNames)
}

// ExtGraph exercises the graph workload engine: a 4-stage 1F1B pipeline
// schedule, generated as a static execution DAG and replayed by the
// dependency-driven scheduler, swept over microbatch counts. The bubble
// fraction (idle share of the stage lanes) is reported against the ideal
// 1F1B fill/drain bound (S-1)/(M+S-1) and against the event-driven
// dynamic 1F1B scheduler of workload.RunPipeline — three independent
// derivations of the same pipelining effect converging as M grows.
func ExtGraph(o Options) ([]*report.Table, error) {
	const stages = 4
	def := workload.Definition{
		Name:        "extgraph-pipe",
		Parallelism: workload.DataParallel,
		Layers: []workload.Layer{
			{Name: "s0", FwdCompute: 160000, IGCompute: 160000, WGCompute: 160000},
			{Name: "s1", FwdCompute: 160000, IGCompute: 160000, WGCompute: 160000},
			{Name: "s2", FwdCompute: 160000, IGCompute: 160000, WGCompute: 160000},
			{Name: "s3", FwdCompute: 160000, IGCompute: 160000, WGCompute: 160000},
		},
	}
	microbatches := []int{1, 2, 4, 8, 16}
	const boundaryTotal = 1 << 20 // activation bytes per boundary per minibatch

	spec := o.point("1x4x1", config.Enhanced, asymmetricNet(o.TrainingPktCap))

	type point struct {
		total   eventq.Time
		bubble  float64
		dynamic float64
	}
	points, err := grid(o, len(microbatches), 1, func(i, _ int) (point, error) {
		m := microbatches[i]
		cfg := workload.PipelineConfig{
			Boundaries:    []int{1, 2, 3},
			StageNodes:    []topology.Node{0, 1, 2, 3},
			Microbatches:  m,
			BoundaryBytes: []int64{boundaryTotal / int64(m), boundaryTotal / int64(m), boundaryTotal / int64(m)},
		}
		g, err := workload.Pipeline1F1B(def, cfg, o.Passes)
		var res graph.Result
		if err == nil {
			res, err = o.replay(spec, g)
		}
		if err != nil {
			return point{}, fmt.Errorf("extgraph m=%d: %w", m, err)
		}
		// The dynamic scheduler's view of the same configuration.
		dcfg := cfg
		dcfg.Schedule = workload.OneFOneBSchedule
		dinst, err := o.instance(spec, nil)
		if err != nil {
			return point{}, err
		}
		dres, err := workload.RunPipeline(dinst, def, dcfg, o.Passes)
		if err != nil {
			return point{}, fmt.Errorf("extgraph dynamic m=%d: %w", m, err)
		}
		return point{
			total:   res.TotalCycles,
			bubble:  graph.PipelineBubbleRatio(res, stages),
			dynamic: dres.BubbleRatio,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	t := report.New("extgraph-bubbles",
		fmt.Sprintf("1F1B pipeline bubbles via graph replay: %d stages on 1x4x1 torus, %d passes", stages, o.Passes),
		"microbatches", "time(cycles)", "bubble-fraction", "ideal-1f1b", "dynamic-1f1b")
	for i, m := range microbatches {
		ideal := float64(stages-1) / float64(m+stages-1)
		t.AddRow(fmt.Sprintf("%d", m),
			report.Int(int64(points[i][0].total)),
			report.Float(points[i][0].bubble),
			report.Float(ideal),
			report.Float(points[i][0].dynamic))
	}
	return []*report.Table{t}, nil
}
