// Command astrasim is the end-to-end simulator CLI: it runs the training
// loop of a DNN workload over a simulated scale-up fabric and reports
// layer-wise compute, communication, and exposed-communication time.
//
// The workload is either a Fig. 8-format description file (-workload
// path/to/file) or one of the built-in models (-workload resnet50,
// transformer, dlrm). System and network parameters mirror Table III of
// the paper; defaults are Table IV.
//
// Examples:
//
//	astrasim -workload resnet50 -topology 2x4x4 -num-passes 2
//	astrasim -workload transformer -topology 2x2x2 -scheduling-policy LIFO
//	astrasim -workload my_dnn.txt -topology a2a:4x4 -switches 2
//	astrasim -workload resnet50 -faults examples/faults/lossy.json
//	astrasim -graph workloads/microbench.graph.json -topology 2x2x2
//	astrasim -workload dlrm -graph-dump dlrm.graph.json
//	astrasim -model workloads/models/tinylm.model.json -plan workloads/models/zero3_tp2_pp2.plan.json -topology hier:sw4,fc4,ring4
//
// -faults applies a JSON fault plan (degraded links, outages, stragglers,
// packet drops with retransmit; see DESIGN.md §8) to the training run and
// reports the dropped-packet and retransmit counters.
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
// default) keeps the serial engine. Incompatible with -faults.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"astrasim/internal/audit"
	"astrasim/internal/cli"
	"astrasim/internal/compute"
	"astrasim/internal/config"
	"astrasim/internal/faults"
	"astrasim/internal/graph"
	"astrasim/internal/modelgen"
	"astrasim/internal/models"
	"astrasim/internal/report"
	"astrasim/internal/system"
	"astrasim/internal/trace"
	"astrasim/internal/workload"
)

// options is the fully parsed and validated command line; main only
// builds one and runs it, so tests can drive parseArgs directly.
type options struct {
	workload      string
	passes        int
	batch, seqLen int
	computeScale  float64
	topoSpec      string
	topoOpts      cli.TopologyOptions
	cfg           config.System
	net           config.Network
	writeWorkload string
	faultsPath    string
	traceOut      string
	graphPath     string
	modelPath     string
	planPath      string
	graphDump     string
	audit         bool
}

// parseArgs parses the flag set and rejects unsupported flag
// combinations, naming them in the error.
func parseArgs(args []string) (*options, error) {
	fs := flag.NewFlagSet("astrasim", flag.ContinueOnError)
	wl := fs.String("workload", "resnet50", "workload file path, or builtin: resnet50|transformer|dlrm")
	passes := fs.Int("num-passes", 2, "forward/backward iterations to simulate")
	batch := fs.Int("batch", 32, "local minibatch size (builtin workloads)")
	seqLen := fs.Int("seq-len", 128, "sequence length (builtin transformer)")
	topoFlag := fs.String("topology", "2x4x4", "torus MxNxK, alltoall a2a:MxN, or composition hier:sw8,fc4,ring32")
	algFlag := fs.String("algorithm", "enhanced", "baseline or enhanced collective algorithm")
	policyFlag := fs.String("scheduling-policy", "LIFO", "LIFO or FIFO")
	switches := fs.Int("global-switches", 2, "global switches (alltoall topology)")
	localRings := fs.Int("local-rings", 2, "unidirectional local rings")
	horizontalRings := fs.Int("horizontal-rings", 2, "bidirectional horizontal rings")
	verticalRings := fs.Int("vertical-rings", 2, "bidirectional vertical rings")
	splits := fs.Int("preferred-set-splits", config.DefaultSystem().PreferredSetSplits, "chunks per collective set")
	endpointDelay := fs.Uint64("endpoint-delay", 10, "NMU delay per received message (cycles)")
	computeScale := fs.Float64("compute-scale", 1, "NPU compute-power multiplier (builtin workloads)")
	localBW := fs.Float64("local-link-bw", 200, "intra-package link bandwidth (GB/s)")
	packageBW := fs.Float64("package-link-bw", 25, "inter-package link bandwidth (GB/s)")
	pktCap := fs.Int("max-packets-per-message", 8, "packet-event cap per message (0 = exact)")
	writeWorkload := fs.String("write-workload", "", "write the selected workload as a Fig. 8 file and exit")
	faultsFlag := fs.String("faults", "", "JSON fault plan for the run (see DESIGN.md §8)")
	traceOut := fs.String("trace", "", "write a Chrome trace (chrome://tracing / Perfetto) of the run to this file")
	graphFlag := fs.String("graph", "", "replay this execution graph (JSON, DESIGN.md §10) instead of the training loop")
	modelFlag := fs.String("model", "", "model spec (JSON, DESIGN.md §15) to compile with -plan instead of -workload")
	planFlag := fs.String("plan", "", "parallelism plan (JSON, DESIGN.md §15) for -model")
	graphDump := fs.String("graph-dump", "", "compile the selected workload into an execution graph, write it here, and exit")
	auditFlag := fs.Bool("audit", false, "attach the invariant auditor and fail on any violation")
	backendFlag := fs.String("backend", "packet", "network backend: packet (congestion-aware) or fast (congestion-unaware analytical)")
	intraParallel := fs.Int("intra-parallel", 0, "shard-pool workers for intra-run parallel packet simulation (0 = serial engine; results are identical at any count)")
	remoteMem := fs.String("remote-mem", "", "disaggregated memory tier, \"bw=<bytes/cycle>[,lat=<cycles>]\" (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	o := &options{
		workload: *wl, passes: *passes, batch: *batch, seqLen: *seqLen,
		computeScale: *computeScale,
		topoSpec:     *topoFlag,
		topoOpts: cli.TopologyOptions{
			LocalRings:      *localRings,
			HorizontalRings: *horizontalRings,
			VerticalRings:   *verticalRings,
			GlobalSwitches:  *switches,
		},
		cfg:           config.DefaultSystem(),
		net:           config.DefaultNetwork(),
		writeWorkload: *writeWorkload,
		faultsPath:    *faultsFlag,
		traceOut:      *traceOut,
		graphPath:     *graphFlag,
		modelPath:     *modelFlag,
		planPath:      *planFlag,
		graphDump:     *graphDump,
		audit:         *auditFlag,
	}
	var err error
	if o.cfg.Backend, err = config.ParseBackend(*backendFlag); err != nil {
		return nil, err
	}
	if o.faultsPath != "" && o.cfg.Backend != config.PacketBackend {
		return nil, fmt.Errorf("-faults requires the packet backend; the %v backend does not model faults", o.cfg.Backend)
	}
	if o.faultsPath != "" && *intraParallel > 0 {
		return nil, fmt.Errorf("-faults and -intra-parallel are mutually exclusive; fault injection needs the serial engine")
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

	o.cfg.IntraParallel = *intraParallel
	if o.cfg.Algorithm, err = config.ParseAlgorithm(*algFlag); err != nil {
		return nil, err
	}
	if o.cfg.SchedulingPolicy, err = config.ParseSchedulingPolicy(*policyFlag); err != nil {
		return nil, err
	}
	o.cfg.PreferredSetSplits = *splits
	o.cfg.EndpointDelay = *endpointDelay
	o.cfg.LocalRings, o.cfg.HorizontalRings, o.cfg.VerticalRings = *localRings, *horizontalRings, *verticalRings
	o.cfg.GlobalSwitches = *switches
	if *remoteMem != "" {
		if o.cfg.RemoteMemBandwidth, o.cfg.RemoteMemLatency, err = cli.ParseRemoteMem(*remoteMem); err != nil {
			return nil, err
		}
	}
	o.net.LocalLinkBandwidth = *localBW
	o.net.PackageLinkBandwidth = *packageBW
	o.net.MaxPacketsPerMessage = *pktCap
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

	cfg := o.cfg
	topo, err := cli.BuildTopology(o.topoSpec, o.topoOpts, &cfg)
	if err != nil {
		fatal(err)
	}
	inst, err := system.NewInstance(topo, cfg, o.net)
	if err != nil {
		fatal(err)
	}
	var plan *faults.Plan
	if o.faultsPath != "" {
		if plan, err = faults.Load(o.faultsPath); err != nil {
			fatal(err)
		}
		if err := faults.Apply(plan, inst); err != nil {
			fatal(err)
		}
	}
	var rec *trace.Recorder
	if o.traceOut != "" {
		rec = trace.New()
		inst.Sys.Tracer = rec
	}
	var aud *audit.Auditor
	if o.audit {
		aud = audit.Attach(inst.Sys, inst.Net)
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
		runName, res.Passes, topo.Name(), cfg.Algorithm, cfg.SchedulingPolicy)
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
	if plan != nil {
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
// -workload's training loop unrolled over -num-passes.
func buildGraph(o *options) (*graph.Graph, string, error) {
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
		g, err := modelgen.Compile(spec, mplan, modelgen.Options{Steps: o.passes, Compute: &cm})
		if err != nil {
			return nil, "", err
		}
		return g, fmt.Sprintf("model %s (%d nodes)", g.Name, len(g.Nodes)), nil
	case o.graphPath != "":
		g, err := graph.Load(o.graphPath)
		if err != nil {
			return nil, "", err
		}
		return g, fmt.Sprintf("graph %s (%d nodes)", g.Name, len(g.Nodes)), nil
	}
	def, err := loadWorkload(o.workload, o.batch, o.seqLen, o.computeScale)
	if err != nil {
		return nil, "", err
	}
	g, err := workload.FromDefinition(def, o.passes)
	if err != nil {
		return nil, "", err
	}
	return g, fmt.Sprintf("workload %s (%s)", def.Name, def.Parallelism), nil
}

func loadWorkload(name string, batch, seqLen int, scale float64) (workload.Definition, error) {
	m := compute.Default()
	switch strings.ToLower(name) {
	case "resnet50", "resnet-50":
		return models.ResNet50(m, batch).ScaleCompute(scale), nil
	case "transformer":
		return models.Transformer(m, batch, seqLen).ScaleCompute(scale), nil
	case "dlrm":
		return models.DLRM(m, batch).ScaleCompute(scale), nil
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
