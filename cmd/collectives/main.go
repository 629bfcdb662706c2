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
// monotonic link stats) to each run, prints its report, and exits non-zero
// on any violation.
//
// -faults applies a JSON fault plan (degraded links, outages, stragglers,
// packet drops with retransmit; see DESIGN.md §8) to each run and reports
// the dropped-packet and retransmit counters alongside the usual stats.
// A straggler node outside the topology is an error.
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
	"astrasim/internal/graph"
	"astrasim/internal/oracle"
	"astrasim/internal/parallel"
	"astrasim/internal/system"
	"astrasim/internal/topology"
)

// options is the fully parsed and validated command line; main only
// builds one and runs it, so tests can drive parseArgs directly.
type options struct {
	spec       cli.RunSpec
	op         collectives.Op
	sizes      []int64
	sizeTokens []string
	workers    int
	oracle     bool
	// graphW x graphD, when non-zero, replays a microbenchmark DAG
	// (width independent chains of depth dependent collectives) through
	// the graph workload engine instead of issuing one collective.
	graphW, graphD int
}

// flags holds the command-specific flag values parseArgs resolves after
// parsing.
type flags struct {
	op, size, graphBench string
	symmetric            bool
}

// newFlags returns the command's flag set, bound to options holding the
// Table IV defaults on a 4x4x4 torus.
func newFlags() (*flag.FlagSet, *options, *flags) {
	o, f := &options{spec: cli.NewRunSpec("4x4x4")}, &flags{}
	fs := flag.NewFlagSet("collectives", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o.spec.Bind(fs, "switches")
	fs.StringVar(&f.op, "op", "allreduce", "collective: reducescatter|allgather|allreduce|alltoall")
	fs.StringVar(&f.size, "size", "4MB", "collective set size(s), comma-separated (supports KB/MB/GB suffixes)")
	fs.BoolVar(&f.symmetric, "symmetric", false, "make local links identical to inter-package links")
	fs.IntVar(&o.workers, "parallel", runtime.NumCPU(), "worker goroutines when sweeping multiple sizes (1 = serial)")
	fs.BoolVar(&o.oracle, "oracle", false, "cross-check each run against the closed-form oracle (DESIGN.md §9)")
	fs.StringVar(&f.graphBench, "graph-bench", "", "replay a WIDTHxDEPTH microbenchmark DAG of the selected op through the graph engine (e.g. 4x8)")
	return fs, o, f
}

// parseArgs parses and validates the flag set. It never prints; every
// rejection comes back as an error naming the offending input.
func parseArgs(args []string) (*options, error) {
	fs, o, f := newFlags()
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := o.spec.Validate(cli.FlagNames); err != nil {
		return nil, err
	}
	if f.symmetric {
		o.spec.Network = o.spec.Network.Symmetric()
	}
	var err error
	if o.op, err = collectives.ParseOp(strings.ToUpper(f.op)); err != nil {
		return nil, err
	}
	if o.sizes, o.sizeTokens, err = cli.ParseSizeList(f.size); err != nil {
		return nil, err
	}
	if o.workers < 1 {
		return nil, fmt.Errorf("-parallel must be >= 1, got %d", o.workers)
	}
	if f.graphBench != "" {
		if n, err := fmt.Sscanf(f.graphBench, "%dx%d", &o.graphW, &o.graphD); err != nil || n != 2 || o.graphW <= 0 || o.graphD <= 0 {
			return nil, fmt.Errorf("-graph-bench wants WIDTHxDEPTH with positive terms, got %q", f.graphBench)
		}
	}
	return o, nil
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		fatal(err)
	}

	topo, err := o.spec.BuildTopology()
	if err != nil {
		fatal(err)
	}
	if err := o.spec.ValidateNPUs(topo.NumNPUs(), cli.FlagNames); err != nil {
		fatal(err)
	}

	var model *oracle.Model
	if o.oracle {
		if model, err = oracle.NewModel(topo, o.spec.System, o.spec.Network); err != nil {
			fatal(fmt.Errorf("-oracle: %w", err))
		}
		if plan := o.spec.Faults; plan != nil {
			for _, s := range plan.Stragglers {
				if err := model.SetNodeStragglerFactor(topology.Node(s.Node), s.Factor); err != nil {
					fatal(fmt.Errorf("-oracle: %w", err))
				}
			}
			if len(plan.Degrades)+len(plan.Outages)+len(plan.Drops) > 0 {
				fmt.Println("oracle: note: degraded-link/outage/drop faults are outside the model; expect divergence")
			}
		}
	}

	if o.graphW > 0 {
		if err := runGraphBench(o, topo); err != nil {
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
		inst, aud, err := o.spec.NewInstance(topo, nil)
		if err != nil {
			return result{}, err
		}
		h, err := inst.RunCollective(o.op, o.sizes[i])
		if err != nil {
			return result{}, err
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
		printResult(o.op, o.sizeTokens[i], o.spec.System.Algorithm, r.inst, r.h)
		if o.spec.Faults != nil {
			ds := r.inst.Net.DropStats()
			fmt.Printf("faults: %d packets dropped (%d bytes), %d retransmits (%d goodput bytes resent)\n",
				ds.DroppedPackets, ds.DroppedBytes, r.inst.Sys.Retransmits(), r.inst.Sys.RetransmittedBytes())
		}
		if model != nil {
			printOracle(model, o.op, o.sizes[i], r.h)
		}
		if o.spec.Audit {
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
func runGraphBench(o *options, topo topology.Topology) error {
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
		inst, aud, err := o.spec.NewInstance(topo, nil)
		if err != nil {
			return result{}, err
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
			o.graphW, o.op, o.sizeTokens[i], r.inst.Topo.Name(), o.spec.System.Algorithm, r.inst.Topo.NumNPUs())
		fmt.Printf("depth %d per lane, %d collectives total\n", o.graphD, o.graphW*o.graphD)
		fmt.Printf("total time: %d cycles (%.3f us at 1 GHz)\n",
			r.res.TotalCycles, float64(r.res.TotalCycles)/1000)
		for _, l := range r.res.Layers {
			fmt.Printf("  %s: %d raw comm cycles over %d collectives\n",
				l.Name, l.TotalCommCycles(), len(l.FwdHandles))
		}
		if o.spec.Faults != nil {
			ds := r.inst.Net.DropStats()
			fmt.Printf("faults: %d packets dropped (%d bytes), %d retransmits (%d goodput bytes resent)\n",
				ds.DroppedPackets, ds.DroppedBytes, r.inst.Sys.Retransmits(), r.inst.Sys.RetransmittedBytes())
		}
		if o.spec.Audit {
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
func printResult(op collectives.Op, sizeSpec string, alg config.Algorithm, inst *system.Instance, h *system.Handle) {
	fmt.Printf("%v of %s on %s (%s algorithm, %d NPUs)\n",
		op, sizeSpec, inst.Topo.Name(), alg, inst.Topo.NumNPUs())
	fmt.Printf("total communication time: %d cycles (%.3f us at 1 GHz)\n",
		h.Duration(), float64(h.Duration())/1000)
	intra, inter, scaleOut := inst.Net.TotalBytesByClass()
	e := energy.CommEnergy(intra, inter, scaleOut, energy.Default())
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
