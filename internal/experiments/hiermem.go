package experiments

import (
	"fmt"

	"astrasim/internal/collectives"
	"astrasim/internal/compute"
	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/models"
	"astrasim/internal/parallel"
	"astrasim/internal/report"
	"astrasim/internal/topology"
	"astrasim/internal/workload"
)

// ExtHier sweeps the compositional topology builder at a fixed 64-NPU
// scale: the same enhanced all-reduce on the classic 3D torus and on
// hier: compositions that phase through switch (halving-doubling),
// fully-connected (direct exchange), and ring dimensions — the
// ASTRA-sim 2.0-style network generalization as a study.
func ExtHier(o Options) ([]*report.Table, error) {
	specs := []string{
		"4x4x4",                  // 3D torus reference
		"hier:sw4,fc4,ring4",     // DGX-like: NVSwitch package, multi-rail FC, ring scale-out
		"hier:ring4,ring4,ring4", // all-ring composition (torus-equivalent schedule)
		"hier:sw8,fc8",           // two-level: pow2 switch package, FC spine
	}
	net := asymmetricNet(o.CollectivePktCap)
	nSpecs := len(specs)
	durs, err := parallel.Map(o.runner(), len(o.SweepSizes)*nSpecs, func(i int) (eventq.Time, error) {
		size, spec := o.SweepSizes[i/nSpecs], o.spec(config.Enhanced, net)
		spec.Topology = specs[i%nSpecs]
		tp, err := spec.BuildTopology()
		if err != nil {
			return 0, err
		}
		h, _, err := o.runCollective(spec, tp, collectives.AllReduce, size)
		if err != nil {
			return 0, fmt.Errorf("exthier %s %d: %w", spec.Topology, size, err)
		}
		return h.Duration(), nil
	})
	if err != nil {
		return nil, err
	}
	cols := append([]string{"size"}, specs...)
	t := report.New("exthier",
		"Compositional scale-up fabrics at 64 NPUs, enhanced all-reduce (comm cycles)", cols...)
	for si, size := range o.SweepSizes {
		row := []string{report.Bytes(size)}
		for j := range specs {
			row = append(row, report.Int(int64(durs[si*nSpecs+j])))
		}
		t.AddRow(row...)
	}
	return []*report.Table{t}, nil
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
	shape := [3]int{2, 2, 2}
	nPools := len(pools)
	durs, err := parallel.Map(o.runner(), len(placements)*nPools, func(i int) (eventq.Time, error) {
		place, pool := placements[i/nPools], pools[i%nPools]
		def := models.Transformer(compute.Default(), o.Batch, o.SeqLen)
		def.Layers = append([]workload.Layer(nil), def.Layers...)
		for li := range def.Layers {
			def.Layers[li].Placement = place
		}
		tp, spec, err := torusSystem(shape[0], shape[1], shape[2], topology.DefaultTorusConfig(), config.Enhanced, asymmetricNet(o.TrainingPktCap), o)
		if err != nil {
			return 0, err
		}
		spec.System.RemoteMemBandwidth = pool.bw
		spec.System.RemoteMemLatency = pool.latency
		inst, err := o.newInstance(spec, tp)
		if err != nil {
			return 0, err
		}
		tr, err := workload.NewTrainer(inst, def, o.Passes)
		if err != nil {
			return 0, err
		}
		res, err := tr.Run()
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
			row = append(row, report.Int(int64(durs[pi*nPools+j])))
		}
		t.AddRow(row...)
	}
	return []*report.Table{t}, nil
}
