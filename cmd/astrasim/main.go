// Command astrasim is the end-to-end simulator CLI: it runs the training
// loop of a DNN workload over a simulated scale-up fabric and reports
// layer-wise compute, communication, and exposed-communication time.
//
// The workload is either a Fig. 8-format description file (-workload
// path/to/file) or one of the built-in models (-workload resnet50, vgg16,
// bertlarge, transformer, dlrm; the daemon's workload.model reads the same
// table). System and network parameters mirror Table III of
// the paper; defaults are Table IV.
//
// Examples:
//
//	astrasim -workload resnet50 -topology 2x4x4 -num-passes 2
//	astrasim -workload transformer -topology 2x2x2 -scheduling-policy LIFO
//	astrasim -workload my_dnn.txt -topology a2a:4x4 -global-switches 2
//	astrasim -workload resnet50 -faults examples/faults/lossy.json
//	astrasim -graph workloads/microbench.graph.json -topology 2x2x2
//	astrasim -workload dlrm -graph-dump dlrm.graph.json
//	astrasim -model workloads/models/tinylm.model.json -plan workloads/models/zero3_tp2_pp2.plan.json -topology hier:sw4,fc4,ring4
//
// -faults applies a JSON fault plan (degraded links, outages, stragglers,
// packet drops with retransmit; see DESIGN.md §8) to the training run and
// reports the dropped-packet and retransmit counters. A straggler node
// outside the topology is an error.
//
// Every run replays an execution graph (DESIGN.md §10) through the
// dependency-driven graph engine: -workload compiles the layer-wise
// training loop into one, -graph reads one from a JSON trace, and -model
// compiles one from a model spec. -graph-dump writes the graph instead of
// running it.
//
// -model spec.json -plan plan.json compiles a versioned model spec under
// a parallelism plan (dp/tp/pp/ep degrees, ZeRO stage, microbatches,
// interleaving factor; DESIGN.md §15) into an execution graph unrolled
// over -num-passes training steps.
//
// -write-workload writes the selected -workload as a Fig. 8 file and
// exits; it cannot be combined with -graph or -model, which carry no
// layer-wise definition.
// -audit attaches the invariant auditor to the run and fails loudly on
// any conservation or quiescence violation.
//
// -backend selects the network transport: packet (congestion-aware,
// default) or fast (congestion-unaware analytical mode; see DESIGN.md
// §11). -faults requires the packet backend.
//
// -intra-parallel N partitions the packet network across N shard-pool
// workers for intra-run parallel simulation (DESIGN.md §13). Results are
// byte-identical to the serial engine at any worker count; 0 (the
// default) keeps the serial engine. Incompatible with -faults, and with
// graphs that hold SEND/RECV nodes (checked before the run starts).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"astrasim/internal/cli"
	"astrasim/internal/compute"
	"astrasim/internal/config"
	"astrasim/internal/graph"
	"astrasim/internal/modelgen"
	"astrasim/internal/models"
	"astrasim/internal/report"
	"astrasim/internal/trace"
	"astrasim/internal/workload"
)

// options is the fully parsed and validated command line; main only
// builds one and runs it, so tests can drive parseArgs directly.
type options struct {
	spec          cli.RunSpec
	workload      string
	passes        int
	batch, seqLen int
	computeScale  float64
	writeWorkload string
	traceOut      string
	graphPath     string
	modelPath     string
	planPath      string
	graphDump     string
}

// newFlags returns the command's flag set, bound to options holding
// astrasim's defaults: the enhanced algorithm and an 8-packet cap.
func newFlags() (*flag.FlagSet, *options) {
	o := &options{spec: cli.NewRunSpec("2x4x4")}
	o.spec.System.Algorithm = config.Enhanced
	o.spec.Network.MaxPacketsPerMessage = 8
	fs := flag.NewFlagSet("astrasim", flag.ContinueOnError)
	o.spec.Bind(fs, "global-switches")
	sys, net := &o.spec.System, &o.spec.Network
	fs.StringVar(&o.workload, "workload", "resnet50", "workload file path, or builtin: "+models.BuiltinNames())
	fs.IntVar(&o.passes, "num-passes", 2, "forward/backward iterations to simulate")
	fs.IntVar(&o.batch, "batch", 32, "local minibatch size (builtin workloads)")
	fs.IntVar(&o.seqLen, "seq-len", 128, "sequence length (builtin transformer and bertlarge)")
	fs.Uint64Var(&sys.EndpointDelay, "endpoint-delay", sys.EndpointDelay, "NMU delay per received message (cycles)")
	fs.Float64Var(&o.computeScale, "compute-scale", 1, "NPU compute-power multiplier (builtin workloads)")
	fs.Float64Var(&net.LocalLinkBandwidth, "local-link-bw", net.LocalLinkBandwidth, "intra-package link bandwidth (GB/s)")
	fs.Float64Var(&net.PackageLinkBandwidth, "package-link-bw", net.PackageLinkBandwidth, "inter-package link bandwidth (GB/s)")
	fs.IntVar(&net.MaxPacketsPerMessage, "max-packets-per-message", net.MaxPacketsPerMessage, "packet-event cap per message (0 = exact)")
	fs.StringVar(&o.writeWorkload, "write-workload", "", "write the selected workload as a Fig. 8 file and exit")
	fs.StringVar(&o.traceOut, "trace", "", "write a Chrome trace (chrome://tracing / Perfetto) of the run to this file")
	fs.StringVar(&o.graphPath, "graph", "", "replay this execution graph (JSON, DESIGN.md §10) instead of the training loop")
	fs.StringVar(&o.modelPath, "model", "", "model spec (JSON, DESIGN.md §15) to compile with -plan instead of -workload")
	fs.StringVar(&o.planPath, "plan", "", "parallelism plan (JSON, DESIGN.md §15) for -model")
	fs.StringVar(&o.graphDump, "graph-dump", "", "compile the selected workload into an execution graph, write it here, and exit")
	return fs, o
}

// parseArgs parses the flag set and rejects unsupported flag
// combinations, naming them in the error.
func parseArgs(args []string) (*options, error) {
	fs, o := newFlags()
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := o.spec.Validate(cli.FlagNames); err != nil {
		return nil, err
	}
	if (o.modelPath == "") != (o.planPath == "") {
		return nil, fmt.Errorf("-model and -plan must be given together")
	}
	if o.modelPath != "" && o.graphPath != "" {
		return nil, fmt.Errorf("-model and -graph are mutually exclusive")
	}
	if o.writeWorkload != "" && (o.graphPath != "" || o.modelPath != "") {
		return nil, fmt.Errorf("-write-workload needs a layer-wise -workload; -graph and -model have none")
	}
	return o, nil
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fatal(err)
	}

	if o.writeWorkload != "" && o.graphDump == "" {
		def, err := loadWorkload(o.workload, o.batch, o.seqLen, o.computeScale)
		if err != nil {
			fatal(err)
		}
		fh, err := os.Create(o.writeWorkload)
		if err != nil {
			fatal(err)
		}
		if err := workload.Write(fh, def); err != nil {
			fatal(err)
		}
		if err := fh.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d layers, %s)\n", o.writeWorkload, len(def.Layers), def.Parallelism)
		return
	}

	g, runName, err := buildGraph(o)
	if err != nil {
		fatal(err)
	}
	if o.graphDump != "" {
		fh, err := os.Create(o.graphDump)
		if err != nil {
			fatal(err)
		}
		if err := graph.Write(fh, g); err != nil {
			fatal(err)
		}
		if err := fh.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d nodes, %d passes)\n", o.graphDump, len(g.Nodes), g.Passes)
		return
	}

	topo, err := o.spec.BuildTopology()
	if err != nil {
		fatal(err)
	}
	if err := o.spec.ValidateNPUs(topo.NumNPUs(), cli.FlagNames); err != nil {
		fatal(err)
	}
	inst, aud, err := o.spec.NewInstance(topo, nil)
	if err != nil {
		fatal(err)
	}
	var rec *trace.Recorder
	if o.traceOut != "" {
		rec = trace.New()
		inst.Sys.Tracer = rec
	}
	res, err := graph.Run(inst, g)
	if err != nil {
		fatal(err)
	}
	if rec != nil {
		fh, err := os.Create(o.traceOut)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteJSON(fh); err != nil {
			fatal(err)
		}
		if err := fh.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d spans)\n", o.traceOut, rec.Len())
	}

	fmt.Printf("%s, %d passes on %s, %v algorithm, %v scheduling\n",
		runName, res.Passes, topo.Name(), o.spec.System.Algorithm, o.spec.System.SchedulingPolicy)
	t := report.New("layers", "per-layer results",
		"layer", "compute", "fwd-comm", "ig-comm", "wg-comm", "exposed")
	for _, l := range res.Layers {
		t.AddRow(l.Name,
			report.Int(int64(l.ComputeCycles)),
			report.Int(int64(l.FwdCommCycles)),
			report.Int(int64(l.IGCommCycles)),
			report.Int(int64(l.WGCommCycles)),
			report.Int(int64(l.ExposedCycles)))
	}
	if err := t.WriteASCII(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Printf("\ntotal: %d cycles (%.3f ms at 1 GHz)\n", res.TotalCycles, float64(res.TotalCycles)/1e6)
	fmt.Printf("compute: %d cycles (%s of total)\n", res.TotalCompute(),
		report.Percent(float64(res.TotalCompute())/float64(res.TotalCycles)))
	fmt.Printf("exposed communication: %d cycles (%s of total)\n", res.TotalExposed(),
		report.Percent(res.ExposedRatio()))
	fmt.Printf("raw communication (overlappable): %d cycles\n", res.TotalComm())
	if o.spec.Faults != nil {
		ds := inst.Net.DropStats()
		fmt.Printf("faults: %d packets dropped (%d bytes), %d retransmits (%d goodput bytes resent)\n",
			ds.DroppedPackets, ds.DroppedBytes, inst.Sys.Retransmits(), inst.Sys.RetransmittedBytes())
	}
	if aud != nil {
		if err := aud.Report().Err(); err != nil {
			fatal(err)
		}
		fmt.Println("audit: all invariants held")
	}
}

// buildGraph returns the execution graph the run replays, with the label
// the report prints for it: the compiled -model, the -graph file, or the
// -workload's training loop unrolled over -num-passes. The graph is
// checked against the exclusion table's graph row before anything runs.
func buildGraph(o *options) (g *graph.Graph, label string, err error) {
	switch {
	case o.modelPath != "":
		spec, err := modelgen.LoadSpec(o.modelPath)
		if err != nil {
			return nil, "", err
		}
		mplan, err := modelgen.LoadPlan(o.planPath)
		if err != nil {
			return nil, "", err
		}
		cm := compute.Default()
		cm.Scale = o.computeScale
		if g, err = modelgen.Compile(spec, mplan, modelgen.Options{Steps: o.passes, Compute: &cm}); err != nil {
			return nil, "", err
		}
		label = fmt.Sprintf("model %s (%d nodes)", g.Name, len(g.Nodes))
	case o.graphPath != "":
		if g, err = graph.Load(o.graphPath); err != nil {
			return nil, "", err
		}
		label = fmt.Sprintf("graph %s (%d nodes)", g.Name, len(g.Nodes))
	default:
		def, err := loadWorkload(o.workload, o.batch, o.seqLen, o.computeScale)
		if err != nil {
			return nil, "", err
		}
		if g, err = workload.FromDefinition(def, o.passes); err != nil {
			return nil, "", err
		}
		label = fmt.Sprintf("workload %s (%s)", def.Name, def.Parallelism)
	}
	return g, label, o.spec.ValidateGraph(g, cli.FlagNames)
}

func loadWorkload(name string, batch, seqLen int, scale float64) (workload.Definition, error) {
	if b, ok := models.LookupBuiltin(name); ok {
		return b.Build(compute.Default(), batch, seqLen).ScaleCompute(scale), nil
	}
	fh, err := os.Open(name)
	if err != nil {
		return workload.Definition{}, fmt.Errorf("workload %q is not builtin and not readable: %w", name, err)
	}
	defer fh.Close()
	def, err := workload.Parse(name, fh)
	if err != nil {
		return workload.Definition{}, err
	}
	return def.ScaleCompute(scale), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "astrasim:", err)
	os.Exit(1)
}
