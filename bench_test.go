// Benchmarks regenerating each paper table/figure at reduced scale (the
// full-scale sweep is cmd/sweep). One benchmark per experiment: Figs. 9-18
// plus microbenchmarks for the simulator's building blocks. Benchmark
// iterations re-run the complete simulation, so ns/op is the wall cost of
// reproducing that experiment's data point(s).
package astrasim_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"astrasim"
	"astrasim/internal/experiments"
	"astrasim/internal/graph"
	"astrasim/internal/service"
	"astrasim/internal/system"
	"astrasim/internal/workload"
)

// eventsPerOp caches each simulation benchmark's event count by name.
var eventsPerOp = map[string]uint64{}

// reportEvents reports the events one run of the benchmark's simulation
// fires as events/op, so a slower benchmark shows whether it did more
// work or the same work more slowly. Runs are deterministic, so one
// extra run per benchmark and process, untimed, counts them. Call it
// after the timed loop.
func reportEvents(b *testing.B, p *astrasim.Platform, run func(*system.Instance) error) {
	b.Helper()
	b.StopTimer()
	n, ok := eventsPerOp[b.Name()]
	if !ok {
		var err error
		if n, err = astrasim.RunEvents(p, run); err != nil {
			b.Fatal(err)
		}
		eventsPerOp[b.Name()] = n
	}
	b.ReportMetric(float64(n), "events/op")
}

// collectiveRun drives one collective of op over bytes to completion.
func collectiveRun(op astrasim.Op, bytes int64) func(*system.Instance) error {
	return func(inst *system.Instance) error {
		h, err := inst.Sys.IssueCollective(op, bytes, op.String(), nil)
		if err != nil {
			return err
		}
		inst.Eng.Run()
		if !h.Done() {
			return fmt.Errorf("%v of %d bytes did not complete", op, bytes)
		}
		return nil
	}
}

// graphRun replays g to completion.
func graphRun(g *astrasim.WorkloadGraph) func(*system.Instance) error {
	return func(inst *system.Instance) error {
		_, err := graph.Run(inst, g)
		return err
	}
}

// benchFigure runs one figure's experiment with Quick options.
func benchFigure(b *testing.B, run func(experiments.Options) bool) {
	b.ReportAllocs()
	o := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if !run(o) {
			b.Fatal("experiment failed")
		}
	}
}

func BenchmarkFig09_1DTopologyComparison(b *testing.B) {
	benchFigure(b, func(o experiments.Options) bool {
		t, err := experiments.Fig9(o)
		return err == nil && len(t) == 2
	})
}

func BenchmarkFig10_TorusDimensionality(b *testing.B) {
	benchFigure(b, func(o experiments.Options) bool {
		t, err := experiments.Fig10(o)
		return err == nil && len(t) == 1
	})
}

func BenchmarkFig11_AsymmetricHierarchy(b *testing.B) {
	benchFigure(b, func(o experiments.Options) bool {
		t, err := experiments.Fig11(o)
		return err == nil && len(t) == 2
	})
}

func BenchmarkFig12_TorusScaling(b *testing.B) {
	benchFigure(b, func(o experiments.Options) bool {
		t, err := experiments.Fig12(o)
		return err == nil && len(t) == 2
	})
}

func BenchmarkFig13_TransformerLayerwise(b *testing.B) {
	benchFigure(b, func(o experiments.Options) bool {
		t, err := experiments.Fig13(o)
		return err == nil && len(t) == 1
	})
}

func BenchmarkFig14_ResNetLayerwiseComm(b *testing.B) {
	benchFigure(b, func(o experiments.Options) bool {
		t, err := experiments.Fig14(o)
		return err == nil && len(t) == 1
	})
}

func BenchmarkFig15_ResNetComputeCommExposed(b *testing.B) {
	benchFigure(b, func(o experiments.Options) bool {
		t, err := experiments.Fig15(o)
		return err == nil && len(t) == 1
	})
}

func BenchmarkFig16_ResNetBreakdownLIFOvsFIFO(b *testing.B) {
	benchFigure(b, func(o experiments.Options) bool {
		t, err := experiments.Fig16(o)
		return err == nil && len(t) == 2
	})
}

func BenchmarkFig17_ExposureVsSystemSize(b *testing.B) {
	benchFigure(b, func(o experiments.Options) bool {
		t, err := experiments.Fig17(o)
		return err == nil && len(t) == 1
	})
}

func BenchmarkFig18_ExposureVsComputePower(b *testing.B) {
	benchFigure(b, func(o experiments.Options) bool {
		t, err := experiments.Fig18(o)
		return err == nil && len(t) == 1
	})
}

// Microbenchmarks of the simulator core: how fast the simulator itself
// runs, independent of any paper experiment.

func BenchmarkAllReduce4x4x4_4MB(b *testing.B) {
	b.ReportAllocs()
	p, err := astrasim.NewTorusPlatform(4, 4, 4, astrasim.WithAlgorithm(astrasim.Enhanced))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := p.RunCollective(astrasim.AllReduce, 4<<20); err != nil {
			b.Fatal(err)
		}
	}
	reportEvents(b, p, collectiveRun(astrasim.AllReduce, 4<<20))
}

// BenchmarkAllReduce4x4x4_4MB_Fast is BenchmarkAllReduce4x4x4_4MB on the
// fast backend: the same chunks and messages, each charged in closed
// form with no packet model, so the two side by side give the packet
// model's cost per message over the fast backend's.
func BenchmarkAllReduce4x4x4_4MB_Fast(b *testing.B) {
	b.ReportAllocs()
	p, err := astrasim.NewTorusPlatform(4, 4, 4,
		astrasim.WithAlgorithm(astrasim.Enhanced),
		astrasim.WithBackend(astrasim.FastBackend))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := p.RunCollective(astrasim.AllReduce, 4<<20); err != nil {
			b.Fatal(err)
		}
	}
	reportEvents(b, p, collectiveRun(astrasim.AllReduce, 4<<20))
}

// BenchmarkAllReduce4x4x4_4MB_ExactPackets is BenchmarkAllReduce4x4x4_4MB
// in the LARGE set's configuration: the packet cap off
// (MaxPacketsPerMessage = 0, one packet per LocalPacketSize or
// PackagePacketSize bytes, as the paper's Garnet runs) and one chunk per
// set. Messages are then hundreds to thousands of packets long, so the
// packet trains' serialization charge (noc.SerTable) is what it measures;
// at the default 64-way split no message reaches the cap, and the run
// would be BenchmarkAllReduce4x4x4_4MB's.
func BenchmarkAllReduce4x4x4_4MB_ExactPackets(b *testing.B) {
	b.ReportAllocs()
	net := astrasim.DefaultNetworkConfig()
	net.MaxPacketsPerMessage = 0
	p, err := astrasim.NewTorusPlatform(4, 4, 4,
		astrasim.WithAlgorithm(astrasim.Enhanced),
		astrasim.WithSetSplits(1),
		astrasim.WithNetwork(net))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := p.RunCollective(astrasim.AllReduce, 4<<20); err != nil {
			b.Fatal(err)
		}
	}
	reportEvents(b, p, collectiveRun(astrasim.AllReduce, 4<<20))
}

// BenchmarkAllReduce4x4x4_4MB_IntraParallel2 is the bench workload
// allreduce-pdes2: BenchmarkAllReduce4x4x4_4MB on the partitioned engine
// with a 2-worker shard pool. Results are byte-identical to the serial
// run; what it measures is the pdes window protocol — the main engine's
// window, the pool round and the flush of shard→main deliveries at each
// barrier (DESIGN.md §13.2).
func BenchmarkAllReduce4x4x4_4MB_IntraParallel2(b *testing.B) {
	benchAllReduce4Cubed(b, 2)
}

// BenchmarkAllReduce4x4x4_4MB_IntraParallel1 runs the partitioned engine
// on one worker: the window protocol's cost with no parallelism, between
// the serial BenchmarkAllReduce4x4x4_4MB and the 2-worker run above.
func BenchmarkAllReduce4x4x4_4MB_IntraParallel1(b *testing.B) {
	benchAllReduce4Cubed(b, 1)
}

func benchAllReduce4Cubed(b *testing.B, workers int) {
	b.ReportAllocs()
	p, err := astrasim.NewTorusPlatform(4, 4, 4,
		astrasim.WithAlgorithm(astrasim.Enhanced),
		astrasim.WithIntraParallel(workers))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := p.RunCollective(astrasim.AllReduce, 4<<20); err != nil {
			b.Fatal(err)
		}
	}
	reportEvents(b, p, collectiveRun(astrasim.AllReduce, 4<<20))
}

// BenchmarkAllReduce8x8x8_64MB_Fast is the bench workload allreduce-fast:
// a 64 MiB enhanced all-reduce over 512 NPUs on the fast backend with the
// default 64-way chunk split. The network charges each single-link
// message in closed form, so the system layer's per-message send path
// (lane lookup, message set-up) and the fast backend's serialization
// memo are most of its cost.
func BenchmarkAllReduce8x8x8_64MB_Fast(b *testing.B) {
	b.ReportAllocs()
	p, err := astrasim.NewTorusPlatform(8, 8, 8,
		astrasim.WithAlgorithm(astrasim.Enhanced),
		astrasim.WithBackend(astrasim.FastBackend))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := p.RunCollective(astrasim.AllReduce, 64<<20); err != nil {
			b.Fatal(err)
		}
	}
	reportEvents(b, p, collectiveRun(astrasim.AllReduce, 64<<20))
}

// benchAllReduce16Cubed is the backend-duality acceptance pair: the same
// 16x16x16 (4096-NPU) all-reduce on the packet-level and fast analytical
// backends. The two live in the LARGE bench set (scripts/bench.sh large),
// not the CORE set — the packet run takes seconds per iteration at this
// scale.
//
// The configuration is chosen so the network transport, not the shared
// system layer, dominates: one chunk per set (splits=1) keeps the
// LSQ/endpoint event count fixed, and MaxPacketsPerMessage=0 removes the
// packet cap so the packet backend models one packet per LocalPacketSize
// bytes, exactly as the paper's Garnet runs. Every message here is one
// ring hop, so the packet backend serializes it as a packet train
// (DESIGN.md §13.4); the fast backend walks the same serialization
// arithmetic with no per-message events.
func benchAllReduce16Cubed(b *testing.B, backend astrasim.Backend) {
	b.ReportAllocs()
	net := astrasim.DefaultNetworkConfig()
	net.MaxPacketsPerMessage = 0
	p, err := astrasim.NewTorusPlatform(16, 16, 16,
		astrasim.WithAlgorithm(astrasim.Enhanced),
		astrasim.WithSetSplits(1),
		astrasim.WithNetwork(net),
		astrasim.WithBackend(backend))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := p.RunCollective(astrasim.AllReduce, 32<<20); err != nil {
			b.Fatal(err)
		}
	}
	reportEvents(b, p, collectiveRun(astrasim.AllReduce, 32<<20))
}

func BenchmarkAllReduce16x16x16_FastMode(b *testing.B) {
	benchAllReduce16Cubed(b, astrasim.FastBackend)
}

func BenchmarkAllReduce16x16x16_PacketMode(b *testing.B) {
	benchAllReduce16Cubed(b, astrasim.PacketBackend)
}

// benchAllReduce16k is the intra-run parallelism acceptance pair: the
// same 16x32x32 (16384-NPU) enhanced all-reduce on the serial packet
// engine and on the partitioned engine (-intra-parallel at NumCPU
// workers). Exact packets (no event cap) and splits=1, like the
// backend-duality pair above. Both engines run every single-hop message
// as a packet train (DESIGN.md §13.4); the partitioned one spreads the
// rest across cores. Results are byte-identical between the two — only
// wall time differs.
func benchAllReduce16k(b *testing.B, workers int) {
	b.ReportAllocs()
	net := astrasim.DefaultNetworkConfig()
	net.MaxPacketsPerMessage = 0
	p, err := astrasim.NewTorusPlatform(16, 32, 32,
		astrasim.WithAlgorithm(astrasim.Enhanced),
		astrasim.WithSetSplits(1),
		astrasim.WithNetwork(net),
		astrasim.WithIntraParallel(workers))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := p.RunCollective(astrasim.AllReduce, 8<<20); err != nil {
			b.Fatal(err)
		}
	}
	reportEvents(b, p, collectiveRun(astrasim.AllReduce, 8<<20))
}

func BenchmarkAllReduce16x32x32_PacketSerial(b *testing.B) {
	benchAllReduce16k(b, 0)
}

func BenchmarkAllReduce16x32x32_IntraParallel(b *testing.B) {
	benchAllReduce16k(b, runtime.NumCPU())
}

// BenchmarkAllReduce16x32x32_IntraParallel1 is the partitioned engine on
// one worker, the window protocol without parallelism.
func BenchmarkAllReduce16x32x32_IntraParallel1(b *testing.B) {
	benchAllReduce16k(b, 1)
}

func BenchmarkAllToAll_8Packages_1MB(b *testing.B) {
	b.ReportAllocs()
	p, err := astrasim.NewAllToAllPlatform(1, 8, astrasim.WithGlobalSwitches(7), astrasim.WithRings(1, 1, 1))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := p.RunCollective(astrasim.AllToAll, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
	reportEvents(b, p, collectiveRun(astrasim.AllToAll, 1<<20))
}

// BenchmarkAllReduceHierSw8_4MB_Fast is the switched fast-backend run of
// the noc fast-backend digest corpus: a 4 MiB baseline all-reduce on
// hier:sw8,fc4,ring4 (128 NPUs; 8-port switches, then fully-connected
// groups of 4, then rings of 4). Its switch dimension sends every
// message NPU->switch->NPU, so the unbounded model's switch-fed links
// carry most of its network cost.
func BenchmarkAllReduceHierSw8_4MB_Fast(b *testing.B) {
	benchSwitchedFast(b, "hier:sw8,fc4,ring4", astrasim.AllReduce, 4<<20)
}

// BenchmarkAllToAllA2A4x8_1MB_Fast is a 1 MiB all-to-all on the 4x8
// alltoall fabric (two global switches) on the fast backend: up to seven
// sources converge on each switch->NPU link at once.
func BenchmarkAllToAllA2A4x8_1MB_Fast(b *testing.B) {
	benchSwitchedFast(b, "a2a:4x8", astrasim.AllToAll, 1<<20)
}

func benchSwitchedFast(b *testing.B, spec string, op astrasim.Op, bytes int64) {
	b.ReportAllocs()
	p, err := astrasim.NewPlatformFromSpec(spec,
		astrasim.WithAlgorithm(astrasim.Baseline),
		astrasim.WithBackend(astrasim.FastBackend))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := p.RunCollective(op, bytes); err != nil {
			b.Fatal(err)
		}
	}
	reportEvents(b, p, collectiveRun(op, bytes))
}

func BenchmarkTrainDLRM_16NPUs(b *testing.B) {
	b.ReportAllocs()
	def := astrasim.DLRM(128)
	var p *astrasim.Platform
	for i := 0; i < b.N; i++ {
		var err error
		if p, err = astrasim.NewTorusPlatform(4, 4, 1); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Train(def, 1); err != nil {
			b.Fatal(err)
		}
	}
	reportEvents(b, p, func(inst *system.Instance) error {
		tr, err := workload.NewTrainer(inst, def, 1)
		if err != nil {
			return err
		}
		_, err = tr.Run()
		return err
	})
}

// Extension-study benchmarks (future-work experiments).

func BenchmarkExt4D_TorusDimensionality(b *testing.B) {
	benchFigure(b, func(o experiments.Options) bool {
		t, err := experiments.Ext4D(o)
		return err == nil && len(t) == 1
	})
}

func BenchmarkExtMapping_LogicalOnPhysical(b *testing.B) {
	benchFigure(b, func(o experiments.Options) bool {
		t, err := experiments.ExtMapping(o)
		return err == nil && len(t) == 1
	})
}

func BenchmarkExtEnergy_CommEnergy(b *testing.B) {
	benchFigure(b, func(o experiments.Options) bool {
		t, err := experiments.ExtEnergy(o)
		return err == nil && len(t) == 1
	})
}

func BenchmarkExtAblation_SchedulingKnobs(b *testing.B) {
	benchFigure(b, func(o experiments.Options) bool {
		t, err := experiments.ExtAblation(o)
		return err == nil && len(t) == 3
	})
}

func BenchmarkExtScaleOut_PodsOverSpine(b *testing.B) {
	benchFigure(b, func(o experiments.Options) bool {
		t, err := experiments.ExtScaleOut(o)
		return err == nil && len(t) == 1
	})
}

func BenchmarkExtSwitched_SwitchBasedScaleUp(b *testing.B) {
	benchFigure(b, func(o experiments.Options) bool {
		t, err := experiments.ExtSwitched(o)
		return err == nil && len(t) == 2
	})
}

func BenchmarkPipelineResNet50_8Stages(b *testing.B) {
	b.ReportAllocs()
	def := astrasim.ResNet50(8)
	acts := astrasim.ResNet50ActivationBytes(8)
	boundaries := astrasim.AutoPartition(def, 8)
	nodes := make([]astrasim.NodeID, 8)
	for i := range nodes {
		nodes[i] = astrasim.NodeID(i)
	}
	bb := make([]int64, len(boundaries))
	for i, bd := range boundaries {
		bb[i] = acts[bd-1] / 4
	}
	cfg := astrasim.PipelineConfig{
		Boundaries: boundaries, StageNodes: nodes,
		Microbatches: 4, BoundaryBytes: bb,
	}
	var p *astrasim.Platform
	for i := 0; i < b.N; i++ {
		var err error
		if p, err = astrasim.NewTorusPlatform(1, 8, 1); err != nil {
			b.Fatal(err)
		}
		if _, err := p.TrainPipeline(def, cfg, 1); err != nil {
			b.Fatal(err)
		}
	}
	reportEvents(b, p, func(inst *system.Instance) error {
		_, err := workload.RunPipeline(inst, def, cfg, 1)
		return err
	})
}

func BenchmarkGraphReplayPipeline(b *testing.B) {
	b.ReportAllocs()
	def := astrasim.ResNet50(8)
	acts := astrasim.ResNet50ActivationBytes(8)
	boundaries := astrasim.AutoPartition(def, 8)
	nodes := make([]astrasim.NodeID, 8)
	for i := range nodes {
		nodes[i] = astrasim.NodeID(i)
	}
	bb := make([]int64, len(boundaries))
	for i, bd := range boundaries {
		bb[i] = acts[bd-1] / 32
	}
	g, err := astrasim.Pipeline1F1BGraph(def, astrasim.PipelineConfig{
		Boundaries: boundaries, StageNodes: nodes,
		Microbatches: 32, BoundaryBytes: bb,
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	var p *astrasim.Platform
	run := func() {
		if p, err = astrasim.NewTorusPlatform(1, 8, 1); err != nil {
			b.Fatal(err)
		}
		if _, err := p.RunGraph(g); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm up one-time allocations so allocs/op is stable at any -benchtime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	reportEvents(b, p, graphRun(g))
}

// modelgenBenchPair is the fixture BenchmarkModelgenCompile and
// BenchmarkModelReplay share: a moe-lm-sized transformer under a 3D
// hybrid plan, the heaviest committed-example shape.
func modelgenBenchPair() (*astrasim.ModelSpec, *astrasim.ParallelismPlan) {
	spec := &astrasim.ModelSpec{
		Version: 1, Name: "bench-lm", Batch: 16, DTypeBytes: 2,
		Transformer: &astrasim.TransformerSpec{
			Layers: 8, Hidden: 256, Heads: 8, Seq: 128, Vocab: 4096,
		},
	}
	plan := &astrasim.ParallelismPlan{
		Version: 1, Name: "bench-zero3", DP: 2, TP: 2, PP: 2,
		ZeROStage: 3, Microbatches: 4,
	}
	return spec, plan
}

// BenchmarkModelgenCompile measures spec+plan -> graph compilation
// alone: the cost a sweep pays per configuration before any simulation.
func BenchmarkModelgenCompile(b *testing.B) {
	b.ReportAllocs()
	spec, plan := modelgenBenchPair()
	if _, err := astrasim.CompileModel(spec, plan, 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := astrasim.CompileModel(spec, plan, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelReplay replays one compiled training step on the packet
// backend: compile once, simulate per iteration.
func BenchmarkModelReplay(b *testing.B) {
	b.ReportAllocs()
	spec, plan := modelgenBenchPair()
	g, err := astrasim.CompileModel(spec, plan, 1)
	if err != nil {
		b.Fatal(err)
	}
	var p *astrasim.Platform
	run := func() {
		if p, err = astrasim.NewTorusPlatform(2, 2, 2); err != nil {
			b.Fatal(err)
		}
		if _, err := p.RunGraph(g); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm up one-time allocations so allocs/op is stable at any -benchtime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	reportEvents(b, p, graphRun(g))
}

// daemonRoundTripJob is a daemon-mix collective of the mid size on its
// switched hierarchical fabric.
const daemonRoundTripJob = `{"topology": "hier:sw8,fc4,ring4", "backend": "fast", "collective": {"op": "allreduce", "bytes": 557056}}`

// BenchmarkDaemonRoundTrip is the daemon's request path, per layer: one
// submission that misses (decode, compile, simulate, cache) and its exact
// repeat, which the result cache answers, through the service handler
// on a fresh one-worker server.
func BenchmarkDaemonRoundTrip(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := service.New(service.Config{Workers: 1})
		h := s.Handler()
		for _, want := range []string{"miss", "hit"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(daemonRoundTripJob)))
			if got := rec.Header().Get("X-Astrasim-Cache"); rec.Code != http.StatusOK || got != want {
				b.Fatalf("status %d, cache %q, want 200 and %q: %s", rec.Code, got, want, rec.Body)
			}
		}
		s.Close()
	}
}
