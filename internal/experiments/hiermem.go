package experiments

import (
	"fmt"

	"astrasim/internal/cli"
	"astrasim/internal/collectives"
	"astrasim/internal/compute"
	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/models"
	"astrasim/internal/report"
	"astrasim/internal/workload"
)

// ExtHier sweeps the compositional topology builder at a fixed 64-NPU
// scale: the same enhanced all-reduce on the classic 3D torus and on
// hier: compositions that phase through switch (halving-doubling),
// fully-connected (direct exchange), and ring dimensions — the
// ASTRA-sim 2.0-style network generalization as a study.
func ExtHier(o Options) ([]*report.Table, error) {
	topos := []string{
		"4x4x4",                  // 3D torus reference
		"hier:sw4,fc4,ring4",     // DGX-like: NVSwitch package, multi-rail FC, ring scale-out
		"hier:ring4,ring4,ring4", // all-ring composition (torus-equivalent schedule)
		"hier:sw8,fc8",           // two-level: pow2 switch package, FC spine
	}
	var specs []cli.RunSpec
	for _, topo := range topos {
		specs = append(specs, o.point(topo, config.Enhanced, asymmetricNet(o.CollectivePktCap)))
	}
	durs, err := o.sizeSweep(collectives.AllReduce, o.SweepSizes, specs)
	if err != nil {
		return nil, err
	}
	return []*report.Table{sizeTable("exthier",
		"Compositional scale-up fabrics at 64 NPUs, enhanced all-reduce (comm cycles)", topos, o.SweepSizes, durs)}, nil
}

// ExtMem sweeps the disaggregated memory tier on a Transformer training
// run: every parameter tensor placed local, interleaved, or fully remote,
// against pools from an aggressive CXL-like link down to a constrained
// one. The table shows the stall cost training pays for pooling memory —
// zero when the tier is disabled, and ordered local <= interleaved <=
// remote within every pool.
func ExtMem(o Options) ([]*report.Table, error) {
	pools := []struct {
		name    string
		bw      float64
		latency uint64
	}{
		{"no pool", 0, 0},
		{"fast pool (bw=50,lat=600)", 50, 600},
		{"slow pool (bw=5,lat=2000)", 5, 2000},
	}
	placements := []compute.Placement{
		compute.PlaceLocal, compute.PlaceInterleaved, compute.PlaceRemote,
	}
	durs, err := grid(o, len(placements), len(pools), func(r, c int) (eventq.Time, error) {
		place, pool := placements[r], pools[c]
		def := models.Transformer(compute.Default(), o.Batch, o.SeqLen)
		def.Layers = append([]workload.Layer(nil), def.Layers...)
		for li := range def.Layers {
			def.Layers[li].Placement = place
		}
		spec := o.point("2x2x2", config.Enhanced, asymmetricNet(o.TrainingPktCap))
		spec.System.RemoteMemBandwidth = pool.bw
		spec.System.RemoteMemLatency = pool.latency
		res, err := o.train(spec, def)
		if err != nil {
			return 0, fmt.Errorf("extmem %v/%s: %w", place, pool.name, err)
		}
		return res.TotalCycles, nil
	})
	if err != nil {
		return nil, err
	}
	cols := []string{"placement"}
	for _, p := range pools {
		cols = append(cols, p.name)
	}
	t := report.New("extmem",
		"Transformer training on 2x2x2 with pooled remote memory: total cycles by tensor placement", cols...)
	for pi, place := range placements {
		row := []string{place.String()}
		for j := range pools {
			row = append(row, report.Int(int64(durs[pi][j])))
		}
		t.AddRow(row...)
	}
	return []*report.Table{t}, nil
}
