// Command collectives runs one collective operation on one topology — the
// "bandwidth test" microbenchmark behind Figs. 9-12 — and prints the total
// communication time, per-class traffic and energy, and the per-phase
// Queue P0-P4 / Network P1-P4 breakdown.
//
// Usage:
//
//	collectives -op allreduce -topology 4x4x4 -size 64MB [-algorithm enhanced]
//	collectives -op alltoall -topology a2a:1x8 -switches 7 -size 4MB
//	collectives -op allreduce -topology 2x2x2x2x2 -size 16MB   # 5D torus
//	collectives -op allreduce -size 1MB,4MB,16MB -parallel 4   # size sweep
//
// Topologies: "MxNxK" builds a hierarchical torus (local x horizontal x
// vertical); more than three dimensions builds the N-dimensional torus
// extension; "a2a:MxN" builds a hierarchical alltoall with -switches
// global switches.
//
// -size accepts a comma-separated list; the points run as independent
// simulations fanned across -parallel worker goroutines (default: all
// CPUs) and are reported in list order, so output is identical for any
// worker count. Every entry must be a positive size; a zero, negative,
// overflowing, or empty entry is rejected naming the offending token.
//
// -audit attaches the invariant auditor (byte conservation, quiescence,
// free-list poisoning) to each run, prints its report, and exits non-zero
// on any violation.
//
// -faults applies a JSON fault plan (degraded links, outages, stragglers,
// packet drops with retransmit; see DESIGN.md §8) to each run and reports
// the dropped-packet and retransmit counters alongside the usual stats.
//
// -backend selects the network transport: packet (congestion-aware,
// default) or fast (congestion-unaware analytical mode; see DESIGN.md
// §11). Single-chunk fast runs are cycle-exact with packet runs;
// -faults requires the packet backend.
//
// -intra-parallel N partitions the packet network across N shard-pool
// workers for intra-run parallel simulation (DESIGN.md §13). Results
// stay byte-identical to the serial engine at any worker count; 0 (the
// default) keeps the serial engine. Incompatible with -faults.
//
// -oracle cross-checks each run against the closed-form cost model in
// internal/oracle (DESIGN.md §9): single-chunk runs print the exact
// predicted-vs-simulated delta, chunked runs print the prediction bounds.
// Straggler faults are mirrored into the model; other fault classes are
// outside its domain and are flagged.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"astrasim/internal/audit"
	"astrasim/internal/cli"
	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/energy"
	"astrasim/internal/faults"
	"astrasim/internal/graph"
	"astrasim/internal/oracle"
	"astrasim/internal/parallel"
	"astrasim/internal/system"
	"astrasim/internal/topology"
)

// options is the fully parsed and validated command line; main only
// builds one and runs it, so tests can drive parseArgs directly.
type options struct {
	op         collectives.Op
	topoSpec   string
	sizes      []int64
	sizeTokens []string
	algName    string
	alg        config.Algorithm
	policy     config.SchedulingPolicy
	topoOpts   cli.TopologyOptions
	splits     int
	symmetric  bool
	workers    int
	audit      bool
	oracle     bool
	backend    config.Backend
	intraPar   int
	plan       *faults.Plan
	// rmBW/rmLat configure the disaggregated remote-memory tier (0
	// bandwidth = disabled); graph replays pick placements per node.
	rmBW  float64
	rmLat uint64
	// graphW x graphD, when non-zero, replays a microbenchmark DAG
	// (width independent chains of depth dependent collectives) through
	// the graph workload engine instead of issuing one collective.
	graphW, graphD int
}

// parseArgs parses and validates the flag set. It never prints; every
// rejection comes back as an error naming the offending input.
func parseArgs(args []string) (*options, error) {
	fs := flag.NewFlagSet("collectives", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	opFlag := fs.String("op", "allreduce", "collective: reducescatter|allgather|allreduce|alltoall")
	topoFlag := fs.String("topology", "4x4x4", "torus MxNxK (or N-D), alltoall a2a:MxN, or composition hier:sw8,fc4,ring32")
	sizeFlag := fs.String("size", "4MB", "collective set size(s), comma-separated (supports KB/MB/GB suffixes)")
	algFlag := fs.String("algorithm", "baseline", "baseline or enhanced hierarchical algorithm")
	policyFlag := fs.String("scheduling-policy", "LIFO", "LIFO or FIFO ready-queue order")
	switches := fs.Int("switches", 2, "global switches (alltoall topology)")
	localRings := fs.Int("local-rings", 2, "unidirectional local rings")
	horizontalRings := fs.Int("horizontal-rings", 2, "bidirectional horizontal rings")
	verticalRings := fs.Int("vertical-rings", 2, "bidirectional vertical rings")
	splits := fs.Int("preferred-set-splits", config.DefaultSystem().PreferredSetSplits, "chunks per set")
	symmetric := fs.Bool("symmetric", false, "make local links identical to inter-package links")
	workers := fs.Int("parallel", runtime.NumCPU(), "worker goroutines when sweeping multiple sizes (1 = serial)")
	auditFlag := fs.Bool("audit", false, "audit each run for invariant violations (byte conservation, quiescence)")
	oracleFlag := fs.Bool("oracle", false, "cross-check each run against the closed-form oracle (DESIGN.md §9)")
	faultsFlag := fs.String("faults", "", "JSON fault plan applied to each run (see DESIGN.md §8)")
	backendFlag := fs.String("backend", "packet", "network backend: packet (congestion-aware) or fast (congestion-unaware analytical)")
	intraParallel := fs.Int("intra-parallel", 0, "shard-pool workers for intra-run parallel packet simulation (0 = serial engine; results are identical at any count)")
	graphBench := fs.String("graph-bench", "", "replay a WIDTHxDEPTH microbenchmark DAG of the selected op through the graph engine (e.g. 4x8)")
	remoteMem := fs.String("remote-mem", "", "disaggregated memory tier, \"bw=<bytes/cycle>[,lat=<cycles>]\" (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	o := &options{
		topoSpec: *topoFlag,
		algName:  *algFlag,
		topoOpts: cli.TopologyOptions{
			LocalRings:      *localRings,
			HorizontalRings: *horizontalRings,
			VerticalRings:   *verticalRings,
			GlobalSwitches:  *switches,
		},
		splits:    *splits,
		symmetric: *symmetric,
		workers:   *workers,
		audit:     *auditFlag,
		oracle:    *oracleFlag,
		intraPar:  *intraParallel,
	}
	var err error
	if o.op, err = collectives.ParseOp(strings.ToUpper(*opFlag)); err != nil {
		return nil, err
	}
	if o.alg, err = config.ParseAlgorithm(*algFlag); err != nil {
		return nil, err
	}
	if o.policy, err = config.ParseSchedulingPolicy(*policyFlag); err != nil {
		return nil, err
	}
	if o.sizes, o.sizeTokens, err = cli.ParseSizeList(*sizeFlag); err != nil {
		return nil, err
	}
	if o.splits < 1 {
		return nil, fmt.Errorf("collectives: -preferred-set-splits must be >= 1, got %d", o.splits)
	}
	if o.workers < 1 {
		return nil, fmt.Errorf("collectives: -parallel must be >= 1, got %d", o.workers)
	}
	if o.backend, err = config.ParseBackend(*backendFlag); err != nil {
		return nil, err
	}
	if o.intraPar < 0 {
		return nil, fmt.Errorf("collectives: -intra-parallel must be >= 0, got %d", o.intraPar)
	}
	if *faultsFlag != "" {
		if o.plan, err = faults.Load(*faultsFlag); err != nil {
			return nil, err
		}
		if o.backend != config.PacketBackend {
			return nil, fmt.Errorf("collectives: -faults requires the packet backend; the %v backend does not model faults", o.backend)
		}
		if o.intraPar > 0 {
			return nil, fmt.Errorf("collectives: -faults and -intra-parallel are mutually exclusive; fault injection needs the serial engine")
		}
	}
	if *graphBench != "" {
		if n, err := fmt.Sscanf(*graphBench, "%dx%d", &o.graphW, &o.graphD); err != nil || n != 2 || o.graphW <= 0 || o.graphD <= 0 {
			return nil, fmt.Errorf("collectives: -graph-bench wants WIDTHxDEPTH with positive terms, got %q", *graphBench)
		}
	}
	if *remoteMem != "" {
		if o.rmBW, o.rmLat, err = cli.ParseRemoteMem(*remoteMem); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		fatal(err)
	}

	cfg := config.DefaultSystem()
	cfg.Algorithm = o.alg
	cfg.SchedulingPolicy = o.policy
	cfg.PreferredSetSplits = o.splits
	cfg.Backend = o.backend
	cfg.IntraParallel = o.intraPar
	cfg.RemoteMemBandwidth, cfg.RemoteMemLatency = o.rmBW, o.rmLat
	topo, err := cli.BuildTopology(o.topoSpec, o.topoOpts, &cfg)
	if err != nil {
		fatal(err)
	}

	net := config.DefaultNetwork()
	if o.symmetric {
		net = net.Symmetric()
	}

	var model *oracle.Model
	if o.oracle {
		if model, err = oracle.NewModel(topo, cfg, net); err != nil {
			fatal(fmt.Errorf("-oracle: %w", err))
		}
		if o.plan != nil {
			for _, s := range o.plan.Stragglers {
				if s.Node < topo.NumNPUs() {
					if err := model.SetNodeStragglerFactor(topology.Node(s.Node), s.Factor); err != nil {
						fatal(fmt.Errorf("-oracle: %w", err))
					}
				}
			}
			if len(o.plan.Degrades)+len(o.plan.Outages)+len(o.plan.Drops) > 0 {
				fmt.Println("oracle: note: degraded-link/outage/drop faults are outside the model; expect divergence")
			}
		}
	}

	if o.graphW > 0 {
		if err := runGraphBench(o, topo, cfg, net); err != nil {
			fatal(err)
		}
		return
	}

	// Each size is an independent simulation (fresh engine/network per
	// run, topology shared read-only); fan them across the worker pool
	// and print in submission order.
	type result struct {
		inst *system.Instance
		h    *system.Handle
		rep  audit.Report
	}
	results, err := parallel.Map(parallel.New(o.workers), len(o.sizes), func(i int) (result, error) {
		inst, err := system.NewInstance(topo, cfg, net)
		if err != nil {
			return result{}, err
		}
		var aud *audit.Auditor
		if o.audit {
			aud = audit.Attach(inst.Sys, inst.Net)
		}
		if o.plan != nil {
			if err := faults.Apply(o.plan, inst); err != nil {
				return result{}, err
			}
		}
		done := false
		h, err := inst.Sys.IssueCollective(o.op, o.sizes[i], o.op.String(), func(*system.Handle) { done = true })
		if err != nil {
			return result{}, err
		}
		inst.Eng.Run()
		if !done {
			return result{}, fmt.Errorf("collective of %d bytes did not complete", o.sizes[i])
		}
		r := result{inst: inst, h: h}
		if aud != nil {
			r.rep = aud.Report()
		}
		return r, nil
	})
	if err != nil {
		fatal(err)
	}
	violations := 0
	for i, r := range results {
		if i > 0 {
			fmt.Println()
		}
		printResult(o.op, o.sizeTokens[i], o.algName, r.inst, r.h)
		if o.plan != nil {
			ds := r.inst.Net.DropStats()
			fmt.Printf("faults: %d packets dropped (%d bytes), %d retransmits (%d goodput bytes resent)\n",
				ds.DroppedPackets, ds.DroppedBytes, r.inst.Sys.Retransmits(), r.inst.Sys.RetransmittedBytes())
		}
		if model != nil {
			printOracle(model, o.op, o.sizes[i], r.h)
		}
		if o.audit {
			fmt.Printf("audit: %s\n", r.rep)
			violations += len(r.rep.Violations)
		}
	}
	if violations > 0 {
		fatal(fmt.Errorf("%d invariant violations", violations))
	}
}

// runGraphBench replays the WIDTHxDEPTH microbenchmark DAG for every
// requested size: width independent chains each running depth dependent
// collectives, scheduled by the graph workload engine.
func runGraphBench(o *options, topo topology.Topology, cfg config.System, net config.Network) error {
	type result struct {
		inst *system.Instance
		res  graph.Result
		rep  audit.Report
	}
	results, err := parallel.Map(parallel.New(o.workers), len(o.sizes), func(i int) (result, error) {
		g, err := graph.Microbench(o.op, o.sizes[i], o.graphW, o.graphD)
		if err != nil {
			return result{}, err
		}
		inst, err := system.NewInstance(topo, cfg, net)
		if err != nil {
			return result{}, err
		}
		var aud *audit.Auditor
		if o.audit {
			aud = audit.Attach(inst.Sys, inst.Net)
		}
		if o.plan != nil {
			if err := faults.Apply(o.plan, inst); err != nil {
				return result{}, err
			}
		}
		res, err := graph.Run(inst, g)
		if err != nil {
			return result{}, err
		}
		r := result{inst: inst, res: res}
		if aud != nil {
			r.rep = aud.Report()
		}
		return r, nil
	})
	if err != nil {
		return err
	}
	violations := 0
	for i, r := range results {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("graph microbench: %d x %v of %s on %s (%s algorithm, %d NPUs)\n",
			o.graphW, o.op, o.sizeTokens[i], r.inst.Topo.Name(), o.algName, r.inst.Topo.NumNPUs())
		fmt.Printf("depth %d per lane, %d collectives total\n", o.graphD, o.graphW*o.graphD)
		fmt.Printf("total time: %d cycles (%.3f us at 1 GHz)\n",
			r.res.TotalCycles, float64(r.res.TotalCycles)/1000)
		for _, l := range r.res.Layers {
			fmt.Printf("  %s: %d raw comm cycles over %d collectives\n",
				l.Name, l.TotalCommCycles(), len(l.FwdHandles))
		}
		if o.plan != nil {
			ds := r.inst.Net.DropStats()
			fmt.Printf("faults: %d packets dropped (%d bytes), %d retransmits (%d goodput bytes resent)\n",
				ds.DroppedPackets, ds.DroppedBytes, r.inst.Sys.Retransmits(), r.inst.Sys.RetransmittedBytes())
		}
		if o.audit {
			fmt.Printf("audit: %s\n", r.rep)
			violations += len(r.rep.Violations)
		}
	}
	if violations > 0 {
		return fmt.Errorf("%d invariant violations", violations)
	}
	return nil
}

// printOracle reports the closed-form prediction next to the simulated
// duration: an exact delta in the single-chunk regime, the prediction
// envelope otherwise.
func printOracle(m *oracle.Model, op collectives.Op, bytes int64, h *system.Handle) {
	simulated := h.Duration()
	if pred, err := m.Predict(op, bytes); err == nil {
		delta := int64(simulated) - int64(pred.Cycles)
		status := "exact match"
		if delta != 0 {
			status = fmt.Sprintf("DELTA %+d cycles", delta)
		}
		fmt.Printf("oracle: predicted %d cycles, simulated %d — %s\n", pred.Cycles, simulated, status)
		return
	}
	lower, upper, err := m.PredictBounds(op, bytes)
	if err != nil {
		fmt.Printf("oracle: not applicable: %v\n", err)
		return
	}
	status := "within bounds"
	if simulated < lower || simulated > upper {
		status = "OUT OF BOUNDS"
	}
	fmt.Printf("oracle: predicted [%d, %d] cycles (chunked run), simulated %d — %s\n",
		lower, upper, simulated, status)
}

// printResult reports one run: total time, traffic, energy, per-phase
// breakdown, and link utilization.
func printResult(op collectives.Op, sizeSpec, alg string, inst *system.Instance, h *system.Handle) {
	fmt.Printf("%v of %s on %s (%s algorithm, %d NPUs)\n",
		op, sizeSpec, inst.Topo.Name(), alg, inst.Topo.NumNPUs())
	fmt.Printf("total communication time: %d cycles (%.3f us at 1 GHz)\n",
		h.Duration(), float64(h.Duration())/1000)
	intra, inter, scaleOut := inst.Net.TotalBytesByClass()
	e := energy.CommEnergy(inst.Net, energy.Default())
	fmt.Printf("traffic: %d intra-package, %d inter-package, %d scale-out bytes\n", intra, inter, scaleOut)
	fmt.Printf("communication energy: %.3g J (intra %.3g, inter %.3g, scale-out %.3g, routers %.3g)\n",
		e.Communication(), e.IntraPackage, e.InterPackage, e.ScaleOut, e.Router)
	fmt.Printf("phases: %d\n", h.NumPhases())
	for i, p := range h.Phases() {
		fmt.Printf("  P%d %-40v queue %10.1f  network %10.1f cycles\n",
			i+1, p, h.AvgQueueDelay(i+1), h.AvgNetworkDelay(i+1))
	}
	fmt.Printf("  P0 ready-queue delay: %.1f cycles\n", h.AvgQueueDelay(0))
	fmt.Println("link utilization over the run:")
	for _, class := range []topology.LinkClass{topology.IntraPackage, topology.InterPackage, topology.ScaleOutLink} {
		u, ok := inst.Net.UtilizationByClass(h.DoneAt)[class]
		if !ok {
			continue
		}
		fmt.Printf("  %-14v %4d links  avg %5.1f%%  peak %5.1f%%\n",
			class, u.Links, 100*u.AvgBusy, 100*u.PeakBusy)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "collectives:", err)
	os.Exit(1)
}
