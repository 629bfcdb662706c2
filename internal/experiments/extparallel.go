package experiments

import (
	"fmt"

	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/graph"
	"astrasim/internal/modelgen"
	"astrasim/internal/report"
)

// ExtParallel sweeps modern parallelization strategies over one model:
// a fixed small transformer compiled by internal/modelgen under every
// ZeRO stage crossed with a tp x pp layout grid, replayed on a DGX-like
// hier:sw2,fc2,ring2 fabric (NVSwitch package, multi-rail FC, ring
// scale-out). Tensor parallelism is scoped to the switch package and
// data parallelism spans the fabric, so the grid shows how each
// strategy trades package-local against cross-fabric traffic — the
// SW/HW co-design question the paper poses, asked of ZeRO/tensor/
// pipeline sharding instead of hand-written layer tables.
func ExtParallel(o Options) ([]*report.Table, error) {
	spec := &modelgen.Spec{
		Version: 1, Name: "extparallel-lm", Batch: 8, DTypeBytes: 2,
		Transformer: &modelgen.TransformerSpec{
			Layers: 8, Hidden: 128, Heads: 4, Seq: 64, Vocab: 1024,
		},
	}
	layouts := []struct {
		name string
		plan modelgen.Plan
	}{
		{"dp8", modelgen.Plan{DP: 8, Microbatches: 4}},
		{"dp4,tp2", modelgen.Plan{DP: 4, TP: 2, Microbatches: 4, TPScope: "local"}},
		{"dp2,tp2,pp2", modelgen.Plan{DP: 2, TP: 2, PP: 2, Microbatches: 4, TPScope: "local"}},
		{"dp2,pp4(v2)", modelgen.Plan{DP: 2, PP: 4, Microbatches: 4, Interleave: 2}},
	}
	stages := []int{0, 1, 2, 3}

	runSpec := o.point("hier:sw2,fc2,ring2", config.Enhanced, asymmetricNet(o.TrainingPktCap))
	durs, err := grid(o, len(stages), len(layouts), func(r, c int) (eventq.Time, error) {
		plan := layouts[c].plan
		plan.Version = modelgen.PlanVersion
		plan.Name = fmt.Sprintf("%s-zero%d", layouts[c].name, stages[r])
		plan.ZeROStage = stages[r]
		g, err := modelgen.Compile(spec, &plan, modelgen.Options{Steps: o.Passes})
		var res graph.Result
		if err == nil {
			res, err = o.replay(runSpec, g)
		}
		if err != nil {
			return 0, fmt.Errorf("extparallel %s: %w", plan.Name, err)
		}
		return res.TotalCycles, nil
	})
	if err != nil {
		return nil, err
	}

	cols := []string{"zero-stage"}
	for _, l := range layouts {
		cols = append(cols, l.name)
	}
	t := report.New("extparallel",
		fmt.Sprintf("ZeRO stage x parallelism layout on hier:sw2,fc2,ring2: %s, %d step(s) (total cycles)",
			spec.Name, o.Passes), cols...)
	for si, stage := range stages {
		row := []string{report.Int(int64(stage))}
		for j := range layouts {
			row = append(row, report.Int(int64(durs[si][j])))
		}
		t.AddRow(row...)
	}
	return []*report.Table{t}, nil
}
