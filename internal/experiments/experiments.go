// Package experiments reproduces every figure of the paper's evaluation
// (§V): collective microbenchmarks over 1D/2D/3D topologies (Figs. 9-12)
// and end-to-end training analyses of Transformer and ResNet-50
// (Figs. 13-18). Each figure function returns the tables (rows/series)
// that the paper plots; cmd/sweep writes them as CSV and ASCII, and the
// benchmark harness re-runs them at reduced scale.
package experiments

import (
	"fmt"

	"astrasim/internal/audit"
	"astrasim/internal/cli"
	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/parallel"
	"astrasim/internal/report"
	"astrasim/internal/system"
	"astrasim/internal/topology"
)

// Options scales the experiments: Full reproduces the paper's ranges,
// Quick shrinks them for tests and benchmarks.
type Options struct {
	// SweepSizes are the collective set sizes for Figs. 9-11.
	SweepSizes []int64
	// Fig12Bytes is the all-reduce size for the scaling study.
	Fig12Bytes int64
	// Passes is the number of training iterations (paper: 2).
	Passes int
	// Batch is the local minibatch size (paper: 32).
	Batch int
	// SeqLen is the Transformer sequence length.
	SeqLen int
	// CollectivePktCap / TrainingPktCap bound packet events per message
	// (timing-neutral; see config.Network.MaxPacketsPerMessage).
	CollectivePktCap int
	TrainingPktCap   int
	// TrainComputeScale calibrates the NPU speed for the training
	// figures (13-18). The paper's evaluation operates where
	// per-iteration communication is comparable to compute (its Fig. 16
	// reports the inter-package fabric saturated with queued chunks, and
	// Fig. 17 reports 4.1%-25.2% exposed communication); Table IV does
	// not pin that balance, and the ideal-utilization 256x256 array at
	// the 1 GHz network clock computes ResNet-50 too slowly to reach it.
	// A value of 4 (the NPU computes 4x faster than the network-clock
	// ideal, e.g. a 2 GHz accelerator at 2x area efficiency) reproduces
	// the paper's operating point; see EXPERIMENTS.md.
	TrainComputeScale float64
	// IntraParShapes are the torus shapes of the extintrapar study
	// (intra-run parallel DES characterization); IntraParBytes is its
	// all-reduce set size.
	IntraParShapes [][3]int
	IntraParBytes  int64

	// Fig17Shapes are the torus shapes (local, horizontal, vertical)
	// for the scale sweep.
	Fig17Shapes [][3]int
	// Fig18Scales are the compute-power multipliers.
	Fig18Scales []float64
	// Workers is the parallel fan-out for a figure's independent
	// simulation points (<= 1 runs serially). Each point still executes
	// on its own single-threaded, deterministic engine, and results are
	// collected in submission order, so tables are byte-identical for
	// every worker count.
	Workers int
	// Spec is the run configuration every point starts from; cmd/sweep
	// binds -backend, -intra-parallel, -faults and -audit into it. A point
	// sets its own algorithm, network and knobs on a copy and builds
	// through newInstance, so it passes Validate and gets the fault plan
	// and auditor that Spec.NewInstance attaches. The degradation study
	// always runs on the serial packet engine, and extintrapar sets its
	// own worker counts.
	Spec cli.RunSpec
	// Audits, when non-nil, gathers the verdicts of the auditors that
	// Spec.Audit attaches.
	Audits *audit.Collector
}

// runner returns the sweep executor for o's worker count.
func (o Options) runner() *parallel.Runner {
	if o.Workers <= 1 {
		return parallel.Serial()
	}
	return parallel.New(o.Workers)
}

// Full returns the paper-scale options.
func Full() Options {
	return Options{
		SweepSizes:        []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20},
		Fig12Bytes:        32 << 20,
		Passes:            2,
		Batch:             32,
		SeqLen:            128,
		CollectivePktCap:  64,
		TrainingPktCap:    8,
		TrainComputeScale: 4,
		Fig17Shapes:       [][3]int{{2, 2, 2}, {2, 4, 2}, {2, 4, 4}, {2, 8, 4}, {2, 8, 8}},
		Fig18Scales:       []float64{0.5, 1, 2, 4},
		IntraParShapes:    [][3]int{{8, 8, 8}, {16, 16, 16}, {16, 32, 32}},
		IntraParBytes:     8 << 20,
		Spec:              cli.NewRunSpec(""),
	}
}

// Quick returns reduced options for fast regression runs.
func Quick() Options {
	return Options{
		SweepSizes:        []int64{256 << 10, 4 << 20},
		Fig12Bytes:        4 << 20,
		Passes:            1,
		Batch:             8,
		SeqLen:            32,
		CollectivePktCap:  16,
		TrainingPktCap:    4,
		TrainComputeScale: 4,
		Fig17Shapes:       [][3]int{{2, 2, 2}, {2, 4, 2}},
		Fig18Scales:       []float64{0.5, 2},
		IntraParShapes:    [][3]int{{2, 2, 2}, {2, 4, 2}},
		IntraParBytes:     1 << 20,
		Spec:              cli.NewRunSpec(""),
	}
}

// symmetricNet returns Table IV parameters with the intra-package links
// downgraded to inter-package characteristics ("links with same BW",
// §V-B/V-C's symmetric configuration).
func symmetricNet(pktCap int) config.Network {
	n := config.DefaultNetwork().Symmetric()
	n.MaxPacketsPerMessage = pktCap
	return n
}

// asymmetricNet returns the Table IV parameters (local links 8x faster).
func asymmetricNet(pktCap int) config.Network {
	n := config.DefaultNetwork()
	n.MaxPacketsPerMessage = pktCap
	return n
}

// spec returns the point spec for alg on net: o.Spec with the point's
// algorithm and network.
func (o Options) spec(alg config.Algorithm, net config.Network) cli.RunSpec {
	s := o.Spec
	s.System.Algorithm, s.Network = alg, net
	return s
}

// newInstance validates one point's spec and builds its instance on
// topo, handing the instance's auditor to o.Audits.
func (o Options) newInstance(spec cli.RunSpec, topo topology.Topology) (*system.Instance, error) {
	if err := spec.Validate(cli.FlagNames); err != nil {
		return nil, err
	}
	inst, aud, err := spec.NewInstance(topo, nil)
	if err != nil {
		return nil, err
	}
	o.Audits.Add(aud)
	return inst, nil
}

// runCollective runs one collective of op/bytes to completion on a fresh
// instance of spec on topo.
func (o Options) runCollective(spec cli.RunSpec, topo topology.Topology, op collectives.Op, bytes int64) (*system.Handle, *system.Instance, error) {
	inst, err := o.newInstance(spec, topo)
	if err != nil {
		return nil, nil, err
	}
	h, err := inst.RunCollective(op, bytes)
	return h, inst, err
}

// torusSystem builds a torus topology plus the point spec for alg on net.
func torusSystem(m, n, k int, tc topology.TorusConfig, alg config.Algorithm, net config.Network, o Options) (*topology.Fabric, cli.RunSpec, error) {
	tp, err := topology.NewTorus(m, n, k, tc)
	return tp, o.spec(alg, net), err
}

// a2aSystem builds an alltoall topology plus the point spec for alg on
// net.
func a2aSystem(m, n int, ac topology.A2AConfig, alg config.Algorithm, net config.Network, o Options) (*topology.Fabric, cli.RunSpec, error) {
	tp, err := topology.NewA2A(m, n, ac)
	return tp, o.spec(alg, net), err
}

// Fig9 compares the 1x8 alltoall topology (7 global switches, one link
// per peer) against the 1x8x1 torus (4 bidirectional rings, four links per
// peer) for the all-to-all and all-reduce collectives across message
// sizes (§V-A).
func Fig9(o Options) ([]*report.Table, error) {
	net := asymmetricNet(o.CollectivePktCap)
	torusTp, torusSpec, err := torusSystem(1, 8, 1,
		topology.TorusConfig{LocalRings: 1, HorizontalRings: 4, VerticalRings: 1}, config.Baseline, net, o)
	if err != nil {
		return nil, err
	}
	a2aTp, a2aSpec, err := a2aSystem(1, 8,
		topology.A2AConfig{LocalRings: 1, GlobalSwitches: 7}, config.Baseline, net, o)
	if err != nil {
		return nil, err
	}

	colls := []struct {
		id, title string
		op        collectives.Op
	}{
		{"fig09a", "1D topology: all-to-all collective, alltoall vs torus (comm cycles)", collectives.AllToAll},
		{"fig09b", "1D topology: all-reduce collective, alltoall vs torus (comm cycles)", collectives.AllReduce},
	}
	// One job per (collective, size, topology) point; both topologies are
	// read-only and safely shared across workers.
	topos := []struct {
		name string
		tp   topology.Topology
		spec cli.RunSpec
	}{
		{"alltoall", a2aTp, a2aSpec},
		{"torus", torusTp, torusSpec},
	}
	nSizes, nTopos := len(o.SweepSizes), len(topos)
	durs, err := parallel.Map(o.runner(), len(colls)*nSizes*nTopos, func(i int) (eventq.Time, error) {
		c := colls[i/(nSizes*nTopos)]
		size := o.SweepSizes[i/nTopos%nSizes]
		pt := topos[i%nTopos]
		h, _, err := o.runCollective(pt.spec, pt.tp, c.op, size)
		if err != nil {
			return 0, fmt.Errorf("%s %s %d: %w", c.id, pt.name, size, err)
		}
		return h.Duration(), nil
	})
	if err != nil {
		return nil, err
	}

	tables := make([]*report.Table, 0, 2)
	for ci, c := range colls {
		t := report.New(c.id, c.title, "size", "alltoall", "torus", "alltoall/torus")
		for si, size := range o.SweepSizes {
			base := (ci*nSizes + si) * nTopos
			ha, ht := durs[base], durs[base+1]
			t.AddRow(report.Bytes(size),
				report.Int(int64(ha)), report.Int(int64(ht)),
				report.Float(float64(ha)/float64(ht)))
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig10 evaluates 1D/2D/3D torus shapes at 64 packages with symmetric
// links and the baseline all-reduce (§V-B).
func Fig10(o Options) ([]*report.Table, error) {
	shapes := [][3]int{{1, 64, 1}, {1, 8, 8}, {2, 8, 4}, {4, 4, 4}}
	net := symmetricNet(o.CollectivePktCap)
	nShapes := len(shapes)
	durs, err := parallel.Map(o.runner(), len(o.SweepSizes)*nShapes, func(i int) (eventq.Time, error) {
		size, s := o.SweepSizes[i/nShapes], shapes[i%nShapes]
		tp, spec, err := torusSystem(s[0], s[1], s[2], topology.DefaultTorusConfig(), config.Baseline, net, o)
		if err != nil {
			return 0, err
		}
		h, _, err := o.runCollective(spec, tp, collectives.AllReduce, size)
		if err != nil {
			return 0, fmt.Errorf("fig10 %v %d: %w", s, size, err)
		}
		return h.Duration(), nil
	})
	if err != nil {
		return nil, err
	}
	t := report.New("fig10", "2D/3D torus at 64 modules, symmetric links, baseline all-reduce (comm cycles)",
		"size", "1x64x1", "1x8x8", "2x8x4", "4x4x4")
	for si, size := range o.SweepSizes {
		row := []string{report.Bytes(size)}
		for j := range shapes {
			row = append(row, report.Int(int64(durs[si*nShapes+j])))
		}
		t.AddRow(row...)
	}
	return []*report.Table{t}, nil
}

// Fig11 shows the benefit of the asymmetric hierarchical topology (local
// links 8x faster) and of the enhanced 4-phase all-reduce on a 64-module
// 4x4x4 system (§V-C).
func Fig11(o Options) ([]*report.Table, error) {
	type variant struct {
		name string
		net  config.Network
		alg  config.Algorithm
	}
	arVariants := []variant{
		{"symmetric", symmetricNet(o.CollectivePktCap), config.Baseline},
		{"asym-baseline", asymmetricNet(o.CollectivePktCap), config.Baseline},
		{"asym-enhanced", asymmetricNet(o.CollectivePktCap), config.Enhanced},
	}
	a2aVariants := arVariants[:2]

	run := func(id, title string, op collectives.Op, variants []variant) (*report.Table, error) {
		cols := []string{"size"}
		for _, v := range variants {
			cols = append(cols, v.name)
		}
		nVar := len(variants)
		durs, err := parallel.Map(o.runner(), len(o.SweepSizes)*nVar, func(i int) (eventq.Time, error) {
			size, v := o.SweepSizes[i/nVar], variants[i%nVar]
			tp, spec, err := torusSystem(4, 4, 4, topology.DefaultTorusConfig(), v.alg, v.net, o)
			if err != nil {
				return 0, err
			}
			h, _, err := o.runCollective(spec, tp, op, size)
			if err != nil {
				return 0, fmt.Errorf("%s %s %d: %w", id, v.name, size, err)
			}
			return h.Duration(), nil
		})
		if err != nil {
			return nil, err
		}
		t := report.New(id, title, cols...)
		for si, size := range o.SweepSizes {
			row := []string{report.Bytes(size)}
			for j := range variants {
				row = append(row, report.Int(int64(durs[si*nVar+j])))
			}
			t.AddRow(row...)
		}
		return t, nil
	}
	ta, err := run("fig11a", "4x4x4 (64 modules): all-reduce, symmetric vs asymmetric vs enhanced (comm cycles)",
		collectives.AllReduce, arVariants)
	if err != nil {
		return nil, err
	}
	tb, err := run("fig11b", "4x4x4 (64 modules): all-to-all, symmetric vs asymmetric (comm cycles)",
		collectives.AllToAll, a2aVariants)
	if err != nil {
		return nil, err
	}
	return []*report.Table{ta, tb}, nil
}

// Fig12 scales the torus from 8 to 64 modules running the 4-phase
// all-reduce and reports total time plus the Queue P0-P4 / Network P1-P4
// breakdown (§V-D).
func Fig12(o Options) ([]*report.Table, error) {
	shapes := [][3]int{{2, 2, 2}, {2, 4, 2}, {2, 4, 4}, {2, 4, 8}}
	net := asymmetricNet(o.CollectivePktCap)
	total := report.New("fig12a", fmt.Sprintf("All-reduce (%s) scaling on torus, 4-phase algorithm (comm cycles)",
		report.Bytes(o.Fig12Bytes)), "topology", "modules", "total")
	breakdown := report.New("fig12b", "Average queue/network delay breakdown per phase (cycles)",
		"topology",
		"QueueP0", "QueueP1", "QueueP2", "QueueP3", "QueueP4",
		"NetP1", "NetP2", "NetP3", "NetP4")
	type point struct {
		npus int
		h    *system.Handle
	}
	points, err := parallel.Map(o.runner(), len(shapes), func(i int) (point, error) {
		s := shapes[i]
		tp, spec, err := torusSystem(s[0], s[1], s[2], topology.DefaultTorusConfig(), config.Enhanced, net, o)
		if err != nil {
			return point{}, err
		}
		h, _, err := o.runCollective(spec, tp, collectives.AllReduce, o.Fig12Bytes)
		if err != nil {
			return point{}, fmt.Errorf("fig12 %v: %w", s, err)
		}
		return point{npus: tp.NumNPUs(), h: h}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, s := range shapes {
		name := fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2])
		h := points[i].h
		total.AddRow(name, report.Int(int64(points[i].npus)), report.Int(int64(h.Duration())))
		row := []string{name}
		for p := 0; p <= 4; p++ {
			row = append(row, report.Float(h.AvgQueueDelay(p)))
		}
		for p := 1; p <= 4; p++ {
			row = append(row, report.Float(h.AvgNetworkDelay(p)))
		}
		breakdown.AddRow(row...)
	}
	return []*report.Table{total, breakdown}, nil
}
