// Package experiments reproduces every figure of the paper's evaluation
// (§V): collective microbenchmarks over 1D/2D/3D topologies (Figs. 9-12)
// and end-to-end training analyses of Transformer and ResNet-50
// (Figs. 13-18). Each figure function returns the tables (rows/series)
// that the paper plots; cmd/sweep writes them as CSV and ASCII, and the
// benchmark harness re-runs them at reduced scale.
package experiments

import (
	"fmt"

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
	// Backend selects the network transport for every simulation a figure
	// runs: config.PacketBackend (the zero value — congestion-aware,
	// packet-granularity, what the committed golden CSVs were recorded
	// with) or config.FastBackend (congestion-unaware analytical mode for
	// quick design sweeps). The fault-injection studies are packet-only
	// and ignore this field.
	Backend config.Backend

	// IntraParallel partitions each packet-backend simulation across this
	// many shard-pool workers (internal/pdes; DESIGN.md §13). 0 keeps the
	// serial engine. Results are byte-identical at any value, so golden
	// CSVs do not depend on it. Ignored by the fast backend.
	IntraParallel int
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

// torusSystem builds a torus topology plus a matching system config on
// the requested network backend; o also carries the intra-run
// parallelism setting into every instance the figure creates.
func torusSystem(m, n, k int, tc topology.TorusConfig, alg config.Algorithm, o Options) (*topology.Torus, config.System, error) {
	tp, err := topology.NewTorus(m, n, k, tc)
	if err != nil {
		return nil, config.System{}, err
	}
	cfg := config.DefaultSystem()
	cfg.Algorithm = alg
	cfg.Backend = o.Backend
	cfg.IntraParallel = o.IntraParallel
	return tp, cfg, nil
}

// a2aSystem builds an alltoall topology plus a matching system config on
// the requested network backend; o also carries the intra-run
// parallelism setting.
func a2aSystem(m, n int, ac topology.A2AConfig, alg config.Algorithm, o Options) (*topology.A2A, config.System, error) {
	tp, err := topology.NewA2A(m, n, ac)
	if err != nil {
		return nil, config.System{}, err
	}
	cfg := config.DefaultSystem()
	cfg.Algorithm = alg
	cfg.Backend = o.Backend
	cfg.IntraParallel = o.IntraParallel
	return tp, cfg, nil
}

// Fig9 compares the 1x8 alltoall topology (7 global switches, one link
// per peer) against the 1x8x1 torus (4 bidirectional rings, four links per
// peer) for the all-to-all and all-reduce collectives across message
// sizes (§V-A).
func Fig9(o Options) ([]*report.Table, error) {
	torusTp, torusCfg, err := torusSystem(1, 8, 1,
		topology.TorusConfig{LocalRings: 1, HorizontalRings: 4, VerticalRings: 1}, config.Baseline, o)
	if err != nil {
		return nil, err
	}
	a2aTp, a2aCfg, err := a2aSystem(1, 8,
		topology.A2AConfig{LocalRings: 1, GlobalSwitches: 7}, config.Baseline, o)
	if err != nil {
		return nil, err
	}
	net := asymmetricNet(o.CollectivePktCap)

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
		cfg  config.System
	}{
		{"alltoall", a2aTp, a2aCfg},
		{"torus", torusTp, torusCfg},
	}
	nSizes, nTopos := len(o.SweepSizes), len(topos)
	durs, err := parallel.Map(o.runner(), len(colls)*nSizes*nTopos, func(i int) (eventq.Time, error) {
		c := colls[i/(nSizes*nTopos)]
		size := o.SweepSizes[i/nTopos%nSizes]
		pt := topos[i%nTopos]
		h, err := system.RunCollective(pt.tp, pt.cfg, net, c.op, size)
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
		tp, cfg, err := torusSystem(s[0], s[1], s[2], topology.DefaultTorusConfig(), config.Baseline, o)
		if err != nil {
			return 0, err
		}
		h, err := system.RunCollective(tp, cfg, net, collectives.AllReduce, size)
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
			tp, cfg, err := torusSystem(4, 4, 4, topology.DefaultTorusConfig(), v.alg, o)
			if err != nil {
				return 0, err
			}
			h, err := system.RunCollective(tp, cfg, v.net, op, size)
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
		tp, cfg, err := torusSystem(s[0], s[1], s[2], topology.DefaultTorusConfig(), config.Enhanced, o)
		if err != nil {
			return point{}, err
		}
		h, err := system.RunCollective(tp, cfg, net, collectives.AllReduce, o.Fig12Bytes)
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
