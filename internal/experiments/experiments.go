// Package experiments reproduces every figure of the paper's evaluation
// (§V): collective microbenchmarks over 1D/2D/3D topologies (Figs. 9-12)
// and end-to-end training analyses of Transformer and ResNet-50
// (Figs. 13-18). Each figure function returns the tables (rows/series)
// that the paper plots; cmd/sweep writes them as CSV and ASCII, and the
// benchmark harness re-runs them at reduced scale.
//
// Every simulation point is one complete cli.RunSpec: a copy of
// Options.Spec with the point's topology spec, ring counts, algorithm,
// network and knobs. A point builds through that spec alone (collective,
// replay), and a study fans its points out as one rows x cols grid.
package experiments

import (
	"fmt"

	"astrasim/internal/audit"
	"astrasim/internal/cli"
	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/graph"
	"astrasim/internal/parallel"
	"astrasim/internal/report"
	"astrasim/internal/system"
	"astrasim/internal/topology"
	"astrasim/internal/workload"
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
	// copies it and sets its own topology spec and ring counts (its
	// Topology and Rings are replaced), algorithm, network and knobs, so
	// the copy describes the point completely. The point validates and
	// builds through the copy, getting the fault plan and auditor that
	// Spec.NewInstance attaches. The degradation study always runs on the
	// serial packet engine, extintrapar sets its own worker counts, and
	// extmap builds logical-on-physical fabrics no spec string names.
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

// point returns the spec of one figure point: o.Spec on the topology
// spec topo with the Table IV ring and switch counts, running alg on net.
func (o Options) point(topo string, alg config.Algorithm, net config.Network) cli.RunSpec {
	s := o.Spec
	s.Topology, s.Rings = topo, cli.DefaultTopologyOptions()
	s.System.Algorithm, s.Network = alg, net
	return s
}

// torus names the MxNxK torus of shape s.
func torus(s [3]int) string { return fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]) }

// instance validates one point's spec and builds its instance, on the
// spec's own topology or, when topo is non-nil, on topo (extmap's mapped
// fabrics). The instance's auditor goes to o.Audits.
func (o Options) instance(spec cli.RunSpec, topo topology.Topology) (*system.Instance, error) {
	if err := spec.Validate(cli.FlagNames); err != nil {
		return nil, err
	}
	if topo == nil {
		var err error
		if topo, err = spec.BuildTopology(); err != nil {
			return nil, err
		}
	}
	inst, aud, err := spec.NewInstance(topo, nil)
	if err != nil {
		return nil, err
	}
	o.Audits.Add(aud)
	return inst, nil
}

// collective runs one op of bytes to completion on a fresh instance of
// spec.
func (o Options) collective(spec cli.RunSpec, op collectives.Op, bytes int64) (*system.Handle, *system.Instance, error) {
	inst, err := o.instance(spec, nil)
	var h *system.Handle
	if err == nil {
		h, err = inst.RunCollective(op, bytes)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s %v %s: %w", spec.Topology, op, report.Bytes(bytes), err)
	}
	return h, inst, nil
}

// replay checks g against spec and replays it on a fresh instance of
// spec.
func (o Options) replay(spec cli.RunSpec, g *graph.Graph) (graph.Result, error) {
	if err := spec.ValidateGraph(g, cli.FlagNames); err != nil {
		return graph.Result{}, err
	}
	inst, err := o.instance(spec, nil)
	if err != nil {
		return graph.Result{}, err
	}
	return graph.Run(inst, g)
}

// train replays def's training loop (workload.FromDefinition) for
// o.Passes iterations on a fresh instance of spec.
func (o Options) train(spec cli.RunSpec, def workload.Definition) (workload.Result, error) {
	g, err := workload.FromDefinition(def, o.Passes)
	if err != nil {
		return workload.Result{}, err
	}
	return o.replay(spec, g)
}

// grid runs cell(r, c) for every cell of a rows x cols grid on o's
// runner and returns the results indexed [r][c]. The error is the first
// failing cell's in row-major order.
func grid[T any](o Options, rows, cols int, cell func(r, c int) (T, error)) ([][]T, error) {
	flat, err := parallel.Map(o.runner(), rows*cols, func(i int) (T, error) {
		return cell(i/cols, i%cols)
	})
	if err != nil {
		return nil, err
	}
	out := make([][]T, rows)
	for r := range out {
		out[r] = flat[r*cols : (r+1)*cols]
	}
	return out, nil
}

// sizeSweep runs op at every size on every spec, one grid cell per
// (size, spec), and returns the completion times indexed [size][spec].
func (o Options) sizeSweep(op collectives.Op, sizes []int64, specs []cli.RunSpec) ([][]eventq.Time, error) {
	return grid(o, len(sizes), len(specs), func(r, c int) (eventq.Time, error) {
		h, _, err := o.collective(specs[c], op, sizes[r])
		if err != nil {
			return 0, err
		}
		return h.Duration(), nil
	})
}

// sizeTable tables a sizeSweep: one row per size, one column of cycles
// per spec after the "size" column.
func sizeTable(id, title string, cols []string, sizes []int64, durs [][]eventq.Time) *report.Table {
	t := report.New(id, title, append([]string{"size"}, cols...)...)
	for si, size := range sizes {
		row := []string{report.Bytes(size)}
		for _, d := range durs[si] {
			row = append(row, report.Int(int64(d)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig9 compares the 1x8 alltoall topology (7 global switches, one link
// per peer) against the 1x8x1 torus (4 bidirectional rings, four links per
// peer) for the all-to-all and all-reduce collectives across message
// sizes (§V-A).
func Fig9(o Options) ([]*report.Table, error) {
	net := asymmetricNet(o.CollectivePktCap)
	a2a := o.point("a2a:1x8", config.Baseline, net)
	a2a.Rings.LocalRings, a2a.Rings.GlobalSwitches = 1, 7
	ring := o.point("1x8x1", config.Baseline, net)
	ring.Rings.LocalRings, ring.Rings.HorizontalRings, ring.Rings.VerticalRings = 1, 4, 1
	specs := []cli.RunSpec{a2a, ring}

	var tables []*report.Table
	for _, c := range []struct {
		id, title string
		op        collectives.Op
	}{
		{"fig09a", "1D topology: all-to-all collective, alltoall vs torus (comm cycles)", collectives.AllToAll},
		{"fig09b", "1D topology: all-reduce collective, alltoall vs torus (comm cycles)", collectives.AllReduce},
	} {
		durs, err := o.sizeSweep(c.op, o.SweepSizes, specs)
		if err != nil {
			return nil, err
		}
		t := report.New(c.id, c.title, "size", "alltoall", "torus", "alltoall/torus")
		for si, size := range o.SweepSizes {
			ha, ht := durs[si][0], durs[si][1]
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
	shapes := []string{"1x64x1", "1x8x8", "2x8x4", "4x4x4"}
	var specs []cli.RunSpec
	for _, s := range shapes {
		specs = append(specs, o.point(s, config.Baseline, symmetricNet(o.CollectivePktCap)))
	}
	durs, err := o.sizeSweep(collectives.AllReduce, o.SweepSizes, specs)
	if err != nil {
		return nil, err
	}
	return []*report.Table{sizeTable("fig10", "2D/3D torus at 64 modules, symmetric links, baseline all-reduce (comm cycles)",
		shapes, o.SweepSizes, durs)}, nil
}

// Fig11 shows the benefit of the asymmetric hierarchical topology (local
// links 8x faster) and of the enhanced 4-phase all-reduce on a 64-module
// 4x4x4 system (§V-C).
func Fig11(o Options) ([]*report.Table, error) {
	names := []string{"symmetric", "asym-baseline", "asym-enhanced"}
	specs := []cli.RunSpec{
		o.point("4x4x4", config.Baseline, symmetricNet(o.CollectivePktCap)),
		o.point("4x4x4", config.Baseline, asymmetricNet(o.CollectivePktCap)),
		o.point("4x4x4", config.Enhanced, asymmetricNet(o.CollectivePktCap)),
	}
	ar, err := o.sizeSweep(collectives.AllReduce, o.SweepSizes, specs)
	if err != nil {
		return nil, err
	}
	a2a, err := o.sizeSweep(collectives.AllToAll, o.SweepSizes, specs[:2])
	if err != nil {
		return nil, err
	}
	return []*report.Table{
		sizeTable("fig11a", "4x4x4 (64 modules): all-reduce, symmetric vs asymmetric vs enhanced (comm cycles)",
			names, o.SweepSizes, ar),
		sizeTable("fig11b", "4x4x4 (64 modules): all-to-all, symmetric vs asymmetric (comm cycles)",
			names[:2], o.SweepSizes, a2a),
	}, nil
}

// Fig12 scales the torus from 8 to 64 modules running the 4-phase
// all-reduce and reports total time plus the Queue P0-P4 / Network P1-P4
// breakdown (§V-D).
func Fig12(o Options) ([]*report.Table, error) {
	shapes := []string{"2x2x2", "2x4x2", "2x4x4", "2x4x8"}
	net := asymmetricNet(o.CollectivePktCap)
	total := report.New("fig12a", fmt.Sprintf("All-reduce (%s) scaling on torus, 4-phase algorithm (comm cycles)",
		report.Bytes(o.Fig12Bytes)), "topology", "modules", "total")
	breakdown := report.New("fig12b", "Average queue/network delay breakdown per phase (cycles)",
		"topology",
		"QueueP0", "QueueP1", "QueueP2", "QueueP3", "QueueP4",
		"NetP1", "NetP2", "NetP3", "NetP4")
	rows, err := grid(o, len(shapes), 1, func(r, _ int) ([]string, error) {
		h, inst, err := o.collective(o.point(shapes[r], config.Enhanced, net), collectives.AllReduce, o.Fig12Bytes)
		if err != nil {
			return nil, err
		}
		row := []string{report.Int(int64(inst.Topo.NumNPUs())), report.Int(int64(h.Duration()))}
		for p := 0; p <= 4; p++ {
			row = append(row, report.Float(h.AvgQueueDelay(p)))
		}
		for p := 1; p <= 4; p++ {
			row = append(row, report.Float(h.AvgNetworkDelay(p)))
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range shapes {
		row := rows[i][0]
		total.AddRow(name, row[0], row[1])
		breakdown.AddRow(append([]string{name}, row[2:]...)...)
	}
	return []*report.Table{total, breakdown}, nil
}
