package experiments

import (
	"fmt"

	"astrasim/internal/cli"
	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/energy"
	"astrasim/internal/eventq"
	"astrasim/internal/oracle"
	"astrasim/internal/parallel"
	"astrasim/internal/report"
	"astrasim/internal/topology"
)

// Extension experiments: studies the paper names as future work, built on
// the same infrastructure — higher-dimensional tori (§III-C: "expanding
// this study to other scale-up topologies such as 4D/5D torus ... will be
// explored as part of future work"), logical-to-physical topology mapping
// (§IV-B), the energy-cost model (§VI), and ablations of the system
// layer's scheduling knobs.

// Ext4D compares torus dimensionality 1D-5D at 64 packages with symmetric
// links and the baseline all-reduce — Fig. 10 extended with the 4D and 5D
// shapes.
func Ext4D(o Options) ([]*report.Table, error) {
	shapes := [][]int{
		{1, 64},            // 1D
		{1, 8, 8},          // 2D
		{1, 4, 4, 4},       // 3D
		{1, 4, 4, 2, 2},    // 4D
		{1, 2, 2, 2, 2, 4}, // 5D
	}
	net := symmetricNet(o.CollectivePktCap)
	cols := []string{"size"}
	for _, s := range shapes {
		cols = append(cols, shapeName(s))
	}
	nShapes := len(shapes)
	durs, err := parallel.Map(o.runner(), len(o.SweepSizes)*nShapes, func(i int) (eventq.Time, error) {
		size, s := o.SweepSizes[i/nShapes], shapes[i%nShapes]
		tp, err := topology.NewHierarchical(o.Spec.Rings.TorusSpecs(s))
		if err != nil {
			return 0, err
		}
		h, _, err := o.runCollective(o.spec(config.Baseline, net), tp, collectives.AllReduce, size)
		if err != nil {
			return 0, fmt.Errorf("ext4d %v %d: %w", s, size, err)
		}
		return h.Duration(), nil
	})
	if err != nil {
		return nil, err
	}
	t := report.New("ext4d", "1D-5D torus at 64 packages, symmetric links, baseline all-reduce (comm cycles)", cols...)
	for si, size := range o.SweepSizes {
		row := []string{report.Bytes(size)}
		for j := range shapes {
			row = append(row, report.Int(int64(durs[si*nShapes+j])))
		}
		t.AddRow(row...)
	}
	return []*report.Table{t}, nil
}

func shapeName(s []int) string {
	out := ""
	for i, v := range s {
		if i > 0 {
			out += "x"
		}
		out += fmt.Sprint(v)
	}
	return out
}

// ExtMapping maps different logical topologies onto one physical 1x64x1
// ring (§IV-B's "map a single logical topology on different physical
// topologies and compare") and runs the all-reduce on each.
func ExtMapping(o Options) ([]*report.Table, error) {
	phys, err := topology.NewTorus(1, 64, 1, topology.DefaultTorusConfig())
	if err != nil {
		return nil, err
	}
	logicals := []struct {
		name string
		topo topology.Topology
	}{}
	l1, err := topology.NewTorus(1, 64, 1, topology.DefaultTorusConfig())
	if err != nil {
		return nil, err
	}
	logicals = append(logicals, struct {
		name string
		topo topology.Topology
	}{"logical 1x64x1", l1})
	l2, err := topology.NewTorus(1, 8, 8, topology.DefaultTorusConfig())
	if err != nil {
		return nil, err
	}
	logicals = append(logicals, struct {
		name string
		topo topology.Topology
	}{"logical 1x8x8", l2})
	l3, err := topology.NewTorus(4, 4, 4, topology.DefaultTorusConfig())
	if err != nil {
		return nil, err
	}
	logicals = append(logicals, struct {
		name string
		topo topology.Topology
	}{"logical 4x4x4", l3})

	net := symmetricNet(o.CollectivePktCap)
	cols := []string{"size"}
	for _, l := range logicals {
		cols = append(cols, l.name)
	}
	// Multi-hop routing amplifies physical traffic up to 8x, so cap the
	// sweep at 8 MB to keep event counts tractable.
	sizes := make([]int64, 0, len(o.SweepSizes))
	for _, s := range o.SweepSizes {
		if s <= 8<<20 {
			sizes = append(sizes, s)
		}
	}
	nLog := len(logicals)
	durs, err := parallel.Map(o.runner(), len(sizes)*nLog, func(i int) (eventq.Time, error) {
		size, l := sizes[i/nLog], logicals[i%nLog]
		mapped, err := topology.NewMapped(l.topo, phys, topology.IdentityMapping(64))
		if err != nil {
			return 0, err
		}
		h, _, err := o.runCollective(o.spec(config.Baseline, net), mapped, collectives.AllReduce, size)
		if err != nil {
			return 0, fmt.Errorf("extmap %s %d: %w", l.name, size, err)
		}
		return h.Duration(), nil
	})
	if err != nil {
		return nil, err
	}
	t := report.New("extmap",
		"Logical topologies mapped onto one physical 1x64x1 ring, all-reduce (comm cycles)", cols...)
	for si, size := range sizes {
		row := []string{report.Bytes(size)}
		for j := range logicals {
			row = append(row, report.Int(int64(durs[si*nLog+j])))
		}
		t.AddRow(row...)
	}
	return []*report.Table{t}, nil
}

// ExtEnergy reports the communication energy of the Fig. 11 variants:
// the enhanced algorithm saves inter-package energy exactly in proportion
// to its traffic reduction (the energy-model integration the paper defers
// to future work).
func ExtEnergy(o Options) ([]*report.Table, error) {
	size := o.SweepSizes[len(o.SweepSizes)-1]
	variants := []struct {
		name string
		alg  config.Algorithm
	}{
		{"baseline", config.Baseline},
		{"enhanced", config.Enhanced},
	}
	rows, err := parallel.Map(o.runner(), len(variants), func(i int) ([]string, error) {
		v := variants[i]
		tp, spec, err := torusSystem(4, 4, 4, topology.DefaultTorusConfig(), v.alg, asymmetricNet(o.CollectivePktCap), o)
		if err != nil {
			return nil, err
		}
		h, inst, err := o.runCollective(spec, tp, collectives.AllReduce, size)
		if err != nil {
			return nil, fmt.Errorf("extenergy %s: %w", v.name, err)
		}
		intra, inter, scaleOut := inst.Net.TotalBytesByClass()
		e := energy.CommEnergy(intra, inter, scaleOut, energy.Default())
		return []string{v.name, report.Int(int64(h.Duration())),
			fmt.Sprintf("%.4g", e.IntraPackage), fmt.Sprintf("%.4g", e.InterPackage),
			fmt.Sprintf("%.4g", e.Router), fmt.Sprintf("%.4g", e.Communication())}, nil
	})
	if err != nil {
		return nil, err
	}
	t := report.New("extenergy",
		fmt.Sprintf("Communication energy of a %s all-reduce on 4x4x4 (joules)", report.Bytes(size)),
		"variant", "time(cycles)", "intraJ", "interJ", "routerJ", "totalJ")
	for _, row := range rows {
		t.AddRow(row...)
	}
	return []*report.Table{t}, nil
}

// ExtAblation sweeps the system layer's scheduling knobs on a fixed
// 4x4x4 enhanced all-reduce: chunk count (preferred-set-splits), LSQ
// width, and the dispatcher threshold/batch — the design choices DESIGN.md
// calls out.
func ExtAblation(o Options) ([]*report.Table, error) {
	size := o.SweepSizes[len(o.SweepSizes)-1]
	net := asymmetricNet(o.CollectivePktCap)
	run := func(mutate func(*config.System)) (int64, error) {
		tp, spec, err := torusSystem(4, 4, 4, topology.DefaultTorusConfig(), config.Enhanced, net, o)
		if err != nil {
			return 0, err
		}
		mutate(&spec.System)
		h, _, err := o.runCollective(spec, tp, collectives.AllReduce, size)
		if err != nil {
			return 0, err
		}
		return int64(h.Duration()), nil
	}

	// One job per knob setting, all three sweeps flattened into a single
	// batch so the pool stays full across sweep boundaries.
	type knob struct {
		label  string
		mutate func(*config.System)
	}
	splitVals := []int{1, 4, 16, 64, 256}
	widthVals := []int{1, 2, 4, 8}
	dispatchVals := [][2]int{{2, 4}, {8, 16}, {32, 64}, {1000, 1000}}
	var knobs []knob
	for _, n := range splitVals {
		n := n
		knobs = append(knobs, knob{report.Int(int64(n)), func(c *config.System) { c.PreferredSetSplits = n }})
	}
	for _, w := range widthVals {
		w := w
		knobs = append(knobs, knob{report.Int(int64(w)), func(c *config.System) { c.LSQWidth = w }})
	}
	for _, tp := range dispatchVals {
		tp := tp
		knobs = append(knobs, knob{fmt.Sprintf("%d/%d", tp[0], tp[1]),
			func(c *config.System) { c.IssueThreshold, c.IssueBatch = tp[0], tp[1] }})
	}
	durs, err := parallel.Map(o.runner(), len(knobs), func(i int) (int64, error) {
		return run(knobs[i].mutate)
	})
	if err != nil {
		return nil, err
	}

	splits := report.New("extablation-splits",
		fmt.Sprintf("Ablation: preferred-set-splits, %s enhanced all-reduce on 4x4x4", report.Bytes(size)),
		"splits", "time(cycles)")
	width := report.New("extablation-lsq",
		"Ablation: LSQ width (concurrent chunks per ring)", "width", "time(cycles)")
	dispatch := report.New("extablation-dispatcher",
		"Ablation: dispatcher threshold T / batch P", "T/P", "time(cycles)")
	for i, k := range knobs {
		switch {
		case i < len(splitVals):
			splits.AddRow(k.label, report.Int(durs[i]))
		case i < len(splitVals)+len(widthVals):
			width.AddRow(k.label, report.Int(durs[i]))
		default:
			dispatch.AddRow(k.label, report.Int(durs[i]))
		}
	}
	return []*report.Table{splits, width, dispatch}, nil
}

// Extensions lists the future-work studies.
func Extensions() []Figure {
	return []Figure{
		{"ext4d", "1D-5D torus dimensionality", Ext4D},
		{"extmap", "Logical-on-physical topology mapping", ExtMapping},
		{"extenergy", "Communication energy model", ExtEnergy},
		{"extablation", "System-layer scheduling ablations", ExtAblation},
		{"extscaleout", "Scale-out fabric extension", ExtScaleOut},
		{"extswitch", "Switch-based scale-up topology", ExtSwitched},
		{"extvalidate", "Simulator vs analytic bounds", ExtValidate},
		{"extdegrade", "Fault injection & graceful degradation", ExtDegradation},
		{"extgraph", "Graph workload engine: 1F1B pipeline bubbles", ExtGraph},
		{"extintrapar", "Intra-run parallel DES: determinism and event collapse", ExtIntraPar},
		{"exthier", "Compositional hierarchical topologies", ExtHier},
		{"extmem", "Disaggregated remote-memory tier", ExtMem},
		{"extparallel", "Modern parallelism: ZeRO stage x tp/pp layout grid", ExtParallel},
	}
}

// ExtScaleOut compares one 32-NPU scale-up torus against four pods of
// 2x2x2 joined by the ethernet-like spine, across collective sizes — the
// scale-out extension's headline study.
func ExtScaleOut(o Options) ([]*report.Table, error) {
	net := asymmetricNet(o.CollectivePktCap)
	up, spec, err := torusSystem(2, 4, 4, topology.DefaultTorusConfig(), config.Enhanced, net, o)
	if err != nil {
		return nil, err
	}
	pod, err := topology.NewTorus(2, 2, 2, topology.DefaultTorusConfig())
	if err != nil {
		return nil, err
	}
	so, err := topology.NewScaleOut(pod, 4, 2)
	if err != nil {
		return nil, err
	}
	type pair struct{ up, so eventq.Time }
	pairs, err := parallel.Map(o.runner(), len(o.SweepSizes), func(i int) (pair, error) {
		size := o.SweepSizes[i]
		hu, _, err := o.runCollective(spec, up, collectives.AllReduce, size)
		if err != nil {
			return pair{}, fmt.Errorf("extscaleout up %d: %w", size, err)
		}
		hs, _, err := o.runCollective(spec, so, collectives.AllReduce, size)
		if err != nil {
			return pair{}, fmt.Errorf("extscaleout so %d: %w", size, err)
		}
		return pair{up: hu.Duration(), so: hs.Duration()}, nil
	})
	if err != nil {
		return nil, err
	}
	t := report.New("extscaleout",
		"All-reduce at 32 NPUs: one 2x4x4 torus vs 4 pods of 2x2x2 over a 100Gb/s spine (comm cycles)",
		"size", "scale-up 2x4x4", "4 pods scale-out", "penalty")
	for si, size := range o.SweepSizes {
		p := pairs[si]
		t.AddRow(report.Bytes(size),
			report.Int(int64(p.up)), report.Int(int64(p.so)),
			report.Float(float64(p.so)/float64(p.up)))
	}
	return []*report.Table{t}, nil
}

// ExtSwitched compares the switch-based scale-up topology (NVSwitch-style,
// §III-C future work) against the ring torus and hierarchical alltoall at
// 16 NPUs for both headline collectives.
func ExtSwitched(o Options) ([]*report.Table, error) {
	net := asymmetricNet(o.CollectivePktCap)
	torusTp, spec, err := torusSystem(4, 4, 1, topology.DefaultTorusConfig(), config.Baseline, net, o)
	if err != nil {
		return nil, err
	}
	a2aTp, err := topology.NewA2A(4, 4, topology.A2AConfig{LocalRings: 2, GlobalSwitches: 2})
	if err != nil {
		return nil, err
	}
	swTp, err := topology.NewSwitched(4, 4, topology.DefaultSwitchedConfig())
	if err != nil {
		return nil, err
	}
	colls := []struct {
		id, title string
		op        collectives.Op
	}{
		{"extswitch-ar", "16 NPUs: all-reduce on torus vs alltoall vs switched (comm cycles)", collectives.AllReduce},
		{"extswitch-a2a", "16 NPUs: all-to-all on torus vs alltoall vs switched (comm cycles)", collectives.AllToAll},
	}
	topos := []topology.Topology{torusTp, a2aTp, swTp}
	nSizes, nTopos := len(o.SweepSizes), len(topos)
	durs, err := parallel.Map(o.runner(), len(colls)*nSizes*nTopos, func(i int) (eventq.Time, error) {
		c := colls[i/(nSizes*nTopos)]
		size := o.SweepSizes[i/nTopos%nSizes]
		h, _, err := o.runCollective(spec, topos[i%nTopos], c.op, size)
		if err != nil {
			return 0, err
		}
		return h.Duration(), nil
	})
	if err != nil {
		return nil, err
	}
	var tables []*report.Table
	for ci, c := range colls {
		t := report.New(c.id, c.title, "size", "4x4x1 torus", "4x4 alltoall", "4x4 switched")
		for si, size := range o.SweepSizes {
			base := (ci*nSizes + si) * nTopos
			t.AddRow(report.Bytes(size),
				report.Int(int64(durs[base])), report.Int(int64(durs[base+1])),
				report.Int(int64(durs[base+2])))
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// ExtValidate tables the event-driven simulator against the closed-form
// alpha-beta bounds (oracle.Model.Bounds) across topologies, operations and
// sizes: the simulation must never beat the analytic lower bound, and the
// ratio shows how much latency the detailed model adds over the
// first-order one.
func ExtValidate(o Options) ([]*report.Table, error) {
	type target struct {
		name string
		topo topology.Topology
		spec cli.RunSpec
	}
	net := asymmetricNet(o.CollectivePktCap)
	var targets []target
	t3, s3, err := torusSystem(4, 4, 4, topology.DefaultTorusConfig(), config.Enhanced, net, o)
	if err != nil {
		return nil, err
	}
	targets = append(targets, target{"4x4x4 enhanced", t3, s3})
	t1, s1, err := torusSystem(1, 8, 1, topology.DefaultTorusConfig(), config.Baseline, net, o)
	if err != nil {
		return nil, err
	}
	targets = append(targets, target{"1x8x1", t1, s1})
	ta, sa, err := a2aSystem(2, 4, topology.DefaultA2AConfig(), config.Baseline, net, o)
	if err != nil {
		return nil, err
	}
	targets = append(targets, target{"2x4 alltoall", ta, sa})
	ops := []collectives.Op{collectives.AllReduce, collectives.AllToAll}
	nOps, nSizes := len(ops), len(o.SweepSizes)
	rows, err := parallel.Map(o.runner(), len(targets)*nOps*nSizes, func(i int) ([]string, error) {
		tg := targets[i/(nOps*nSizes)]
		op := ops[i/nSizes%nOps]
		size := o.SweepSizes[i%nSizes]
		h, _, err := o.runCollective(tg.spec, tg.topo, op, size)
		if err != nil {
			return nil, err
		}
		m, err := oracle.NewModel(tg.topo, tg.spec.System, net)
		if err != nil {
			return nil, err
		}
		b, err := m.Bounds(op, size)
		if err != nil {
			return nil, err
		}
		sim := float64(h.Duration())
		return []string{tg.name, op.String(), report.Bytes(size),
			report.Float(b.Lower), report.Float(b.Estimate),
			report.Int(int64(h.Duration())), report.Float(sim / b.Lower)}, nil
	})
	if err != nil {
		return nil, err
	}
	t := report.New("extvalidate",
		"Event-driven simulation vs closed-form alpha-beta bounds (cycles)",
		"config", "op", "size", "analytic-lower", "analytic-est", "simulated", "sim/lower")
	for _, row := range rows {
		t.AddRow(row...)
	}
	return []*report.Table{t}, nil
}
