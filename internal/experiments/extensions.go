package experiments

import (
	"fmt"

	"astrasim/internal/cli"
	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/energy"
	"astrasim/internal/eventq"
	"astrasim/internal/oracle"
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
	// Every shape is the all-ring composition of its axes. "1x8x8" would
	// build the 3D torus, which numbers its nodes differently, so the 2D
	// shape spells its rings out.
	shapes := []struct{ name, topo string }{
		{"1x64", "1x64"},                    // 1D
		{"1x8x8", "hier:ring1,ring8,ring8"}, // 2D
		{"1x4x4x4", "1x4x4x4"},              // 3D
		{"1x4x4x2x2", "1x4x4x2x2"},          // 4D
		{"1x2x2x2x2x4", "1x2x2x2x2x4"},      // 5D
	}
	var cols []string
	var specs []cli.RunSpec
	for _, s := range shapes {
		cols = append(cols, s.name)
		specs = append(specs, o.point(s.topo, config.Baseline, symmetricNet(o.CollectivePktCap)))
	}
	durs, err := o.sizeSweep(collectives.AllReduce, o.SweepSizes, specs)
	if err != nil {
		return nil, err
	}
	return []*report.Table{sizeTable("ext4d", "1D-5D torus at 64 packages, symmetric links, baseline all-reduce (comm cycles)",
		cols, o.SweepSizes, durs)}, nil
}

// ExtMapping maps different logical topologies onto one physical 1x64x1
// ring (§IV-B's "map a single logical topology on different physical
// topologies and compare") and runs the all-reduce on each. No spec
// string names a logical-on-physical mapping, so this study builds its
// fabrics itself and its points' specs carry no topology.
func ExtMapping(o Options) ([]*report.Table, error) {
	phys, err := topology.NewTorus(1, 64, 1, topology.DefaultTorusConfig())
	if err != nil {
		return nil, err
	}
	var cols []string
	var logicals []topology.Topology
	for _, s := range [][3]int{{1, 64, 1}, {1, 8, 8}, {4, 4, 4}} {
		l, err := topology.NewTorus(s[0], s[1], s[2], topology.DefaultTorusConfig())
		if err != nil {
			return nil, err
		}
		cols = append(cols, "logical "+torus(s))
		logicals = append(logicals, l)
	}
	// Multi-hop routing amplifies physical traffic up to 8x, so cap the
	// sweep at 8 MB to keep event counts tractable.
	sizes := make([]int64, 0, len(o.SweepSizes))
	for _, s := range o.SweepSizes {
		if s <= 8<<20 {
			sizes = append(sizes, s)
		}
	}
	spec := o.point("", config.Baseline, symmetricNet(o.CollectivePktCap))
	durs, err := grid(o, len(sizes), len(logicals), func(r, c int) (eventq.Time, error) {
		mapped, err := topology.NewMapped(logicals[c], phys, topology.IdentityMapping(64))
		if err != nil {
			return 0, err
		}
		inst, err := o.instance(spec, mapped)
		if err != nil {
			return 0, err
		}
		h, err := inst.RunCollective(collectives.AllReduce, sizes[r])
		if err != nil {
			return 0, fmt.Errorf("extmap %s %d: %w", cols[c], sizes[r], err)
		}
		return h.Duration(), nil
	})
	if err != nil {
		return nil, err
	}
	return []*report.Table{sizeTable("extmap",
		"Logical topologies mapped onto one physical 1x64x1 ring, all-reduce (comm cycles)", cols, sizes, durs)}, nil
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
	rows, err := grid(o, len(variants), 1, func(r, _ int) ([]string, error) {
		v := variants[r]
		h, inst, err := o.collective(o.point("4x4x4", v.alg, asymmetricNet(o.CollectivePktCap)), collectives.AllReduce, size)
		if err != nil {
			return nil, err
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
		t.AddRow(row[0]...)
	}
	return []*report.Table{t}, nil
}

// ExtAblation sweeps the system layer's scheduling knobs on a fixed
// 4x4x4 enhanced all-reduce: chunk count (preferred-set-splits), LSQ
// width, and the dispatcher threshold/batch — the design choices DESIGN.md
// calls out.
func ExtAblation(o Options) ([]*report.Table, error) {
	size := o.SweepSizes[len(o.SweepSizes)-1]
	splits := report.New("extablation-splits",
		fmt.Sprintf("Ablation: preferred-set-splits, %s enhanced all-reduce on 4x4x4", report.Bytes(size)),
		"splits", "time(cycles)")
	width := report.New("extablation-lsq",
		"Ablation: LSQ width (concurrent chunks per ring)", "width", "time(cycles)")
	dispatch := report.New("extablation-dispatcher",
		"Ablation: dispatcher threshold T / batch P", "T/P", "time(cycles)")

	// One point per knob setting, all three sweeps in a single grid so
	// the pool stays full across sweep boundaries.
	type knob struct {
		table  *report.Table
		label  string
		mutate func(*config.System)
	}
	var knobs []knob
	for _, n := range []int{1, 4, 16, 64, 256} {
		knobs = append(knobs, knob{splits, report.Int(int64(n)), func(c *config.System) { c.PreferredSetSplits = n }})
	}
	for _, w := range []int{1, 2, 4, 8} {
		knobs = append(knobs, knob{width, report.Int(int64(w)), func(c *config.System) { c.LSQWidth = w }})
	}
	for _, tp := range [][2]int{{2, 4}, {8, 16}, {32, 64}, {1000, 1000}} {
		knobs = append(knobs, knob{dispatch, fmt.Sprintf("%d/%d", tp[0], tp[1]),
			func(c *config.System) { c.IssueThreshold, c.IssueBatch = tp[0], tp[1] }})
	}
	durs, err := grid(o, len(knobs), 1, func(r, _ int) (eventq.Time, error) {
		spec := o.point("4x4x4", config.Enhanced, asymmetricNet(o.CollectivePktCap))
		knobs[r].mutate(&spec.System)
		h, _, err := o.collective(spec, collectives.AllReduce, size)
		if err != nil {
			return 0, err
		}
		return h.Duration(), nil
	})
	if err != nil {
		return nil, err
	}
	for i, k := range knobs {
		k.table.AddRow(k.label, report.Int(int64(durs[i][0])))
	}
	return []*report.Table{splits, width, dispatch}, nil
}

// ExtScaleOut compares one 32-NPU scale-up torus against four pods of
// 2x2x2 joined by the ethernet-like spine, across collective sizes — the
// scale-out extension's headline study.
func ExtScaleOut(o Options) ([]*report.Table, error) {
	net := asymmetricNet(o.CollectivePktCap)
	durs, err := o.sizeSweep(collectives.AllReduce, o.SweepSizes, []cli.RunSpec{
		o.point("2x4x4", config.Enhanced, net),
		o.point("so:2x2x2/4", config.Enhanced, net),
	})
	if err != nil {
		return nil, err
	}
	t := report.New("extscaleout",
		"All-reduce at 32 NPUs: one 2x4x4 torus vs 4 pods of 2x2x2 over a 100Gb/s spine (comm cycles)",
		"size", "scale-up 2x4x4", "4 pods scale-out", "penalty")
	for si, size := range o.SweepSizes {
		up, so := durs[si][0], durs[si][1]
		t.AddRow(report.Bytes(size),
			report.Int(int64(up)), report.Int(int64(so)),
			report.Float(float64(so)/float64(up)))
	}
	return []*report.Table{t}, nil
}

// ExtSwitched compares the switch-based scale-up topology (NVSwitch-style,
// §III-C future work) against the ring torus and hierarchical alltoall at
// 16 NPUs for both headline collectives.
func ExtSwitched(o Options) ([]*report.Table, error) {
	net := asymmetricNet(o.CollectivePktCap)
	cols := []string{"4x4x1 torus", "4x4 alltoall", "4x4 switched"}
	specs := []cli.RunSpec{
		o.point("4x4x1", config.Baseline, net),
		o.point("a2a:4x4", config.Baseline, net),
		o.point("sw:4x4", config.Baseline, net),
	}
	var tables []*report.Table
	for _, c := range []struct {
		id, title string
		op        collectives.Op
	}{
		{"extswitch-ar", "16 NPUs: all-reduce on torus vs alltoall vs switched (comm cycles)", collectives.AllReduce},
		{"extswitch-a2a", "16 NPUs: all-to-all on torus vs alltoall vs switched (comm cycles)", collectives.AllToAll},
	} {
		durs, err := o.sizeSweep(c.op, o.SweepSizes, specs)
		if err != nil {
			return nil, err
		}
		tables = append(tables, sizeTable(c.id, c.title, cols, o.SweepSizes, durs))
	}
	return tables, nil
}

// ExtValidate tables the event-driven simulator against the closed-form
// alpha-beta bounds (oracle.Model.Bounds) across topologies, operations and
// sizes: the simulation must never beat the analytic lower bound, and the
// ratio shows how much latency the detailed model adds over the
// first-order one.
func ExtValidate(o Options) ([]*report.Table, error) {
	net := asymmetricNet(o.CollectivePktCap)
	targets := []struct {
		name string
		spec cli.RunSpec
	}{
		{"4x4x4 enhanced", o.point("4x4x4", config.Enhanced, net)},
		{"1x8x1", o.point("1x8x1", config.Baseline, net)},
		{"2x4 alltoall", o.point("a2a:2x4", config.Baseline, net)},
	}
	// One grid row per (target, op), one column per size.
	type pair struct {
		name string
		spec cli.RunSpec
		op   collectives.Op
	}
	var pairs []pair
	for _, tg := range targets {
		for _, op := range []collectives.Op{collectives.AllReduce, collectives.AllToAll} {
			pairs = append(pairs, pair{tg.name, tg.spec, op})
		}
	}
	rows, err := grid(o, len(pairs), len(o.SweepSizes), func(r, c int) ([]string, error) {
		p, size := pairs[r], o.SweepSizes[c]
		h, inst, err := o.collective(p.spec, p.op, size)
		if err != nil {
			return nil, err
		}
		m, err := oracle.NewModel(inst.Topo, p.spec.System, p.spec.Network)
		if err != nil {
			return nil, err
		}
		b, err := m.Bounds(p.op, size)
		if err != nil {
			return nil, err
		}
		sim := float64(h.Duration())
		return []string{p.name, p.op.String(), report.Bytes(size),
			report.Float(b.Lower), report.Float(b.Estimate),
			report.Int(int64(h.Duration())), report.Float(sim / b.Lower)}, nil
	})
	if err != nil {
		return nil, err
	}
	t := report.New("extvalidate",
		"Event-driven simulation vs closed-form alpha-beta bounds (cycles)",
		"config", "op", "size", "analytic-lower", "analytic-est", "simulated", "sim/lower")
	for _, pr := range rows {
		for _, row := range pr {
			t.AddRow(row...)
		}
	}
	return []*report.Table{t}, nil
}
