package workload

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/system"
	"astrasim/internal/topology"
)

func sampleDef() Definition {
	return Definition{
		Name:        "sample",
		Parallelism: DataParallel,
		Layers: []Layer{
			{Name: "conv1", FwdCompute: 1000, IGCompute: 1100, WGCompute: 1200,
				FwdComm: collectives.None, IGComm: collectives.None, WGComm: collectives.AllReduce,
				WGBytes: 64 << 10, UpdatePerKB: 2},
			{Name: "fc", FwdCompute: 500, IGCompute: 600, WGCompute: 700,
				FwdComm: collectives.None, IGComm: collectives.None, WGComm: collectives.AllReduce,
				WGBytes: 128 << 10, UpdatePerKB: 2},
		},
	}
}

func TestParseWriteRoundTrip(t *testing.T) {
	def := sampleDef()
	def.Parallelism = HybridParallel
	def.Layers[0].FwdComm = collectives.AllGather
	def.Layers[0].FwdBytes = 32 << 10
	def.Layers[0].IGComm = collectives.AllToAll
	def.Layers[0].IGBytes = 16 << 10
	var buf bytes.Buffer
	if err := Write(&buf, def); err != nil {
		t.Fatal(err)
	}
	got, err := Parse("sample", &buf)
	if err != nil {
		t.Fatalf("Parse: %v\ninput:\n%s", err, buf.String())
	}
	if got.Parallelism != def.Parallelism || len(got.Layers) != len(def.Layers) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range def.Layers {
		if got.Layers[i] != def.Layers[i] {
			t.Errorf("layer %d: got %+v, want %+v", i, got.Layers[i], def.Layers[i])
		}
	}
}

func TestParseSkipsCommentsAndBlanks(t *testing.T) {
	input := `
# a workload
DATA

1
# layer one
l1
10 20 30
NONE NONE ALLREDUCE
0 0 1024
5
`
	def, err := Parse("t", strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if def.Layers[0].WGBytes != 1024 || def.Layers[0].UpdatePerKB != 5 {
		t.Errorf("parsed layer = %+v", def.Layers[0])
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"bad parallelism": "PIPELINED\n1\nl\n1 1 1\nNONE NONE NONE\n0 0 0\n0\n",
		"bad layer count": "DATA\nzero\n",
		"truncated":       "DATA\n2\nl1\n1 1 1\nNONE NONE ALLREDUCE\n0 0 10\n0\n",
		"bad op":          "DATA\n1\nl\n1 1 1\nNONE NONE BCAST\n0 0 10\n0\n",
		"op w/o size":     "DATA\n1\nl\n1 1 1\nNONE NONE ALLREDUCE\n0 0 0\n0\n",
	}
	for name, in := range cases {
		if _, err := Parse(name, strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestParseRejectsDuplicateLayerNames(t *testing.T) {
	input := `DATA
2
conv1
10 20 30
NONE NONE ALLREDUCE
0 0 1024
1
conv1
11 21 31
NONE NONE ALLREDUCE
0 0 2048
1
`
	_, err := Parse("dup", strings.NewReader(input))
	if err == nil {
		t.Fatal("expected duplicate-layer-name error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "conv1") {
		t.Errorf("error %q does not name the duplicate layer", msg)
	}
	// Both the failing and the original definition lines are reported.
	if !strings.Contains(msg, "line 8") || !strings.Contains(msg, "line 3") {
		t.Errorf("error %q does not carry both line numbers", msg)
	}
}

func TestCommPatternTableI(t *testing.T) {
	// Table I: data -> weight gradients only; model -> activations and
	// input gradients; hybrid -> all (partially).
	a, w, i := DataParallel.CommPattern()
	if a || !w || i {
		t.Errorf("data parallel pattern = %v %v %v", a, w, i)
	}
	a, w, i = ModelParallel.CommPattern()
	if !a || w || !i {
		t.Errorf("model parallel pattern = %v %v %v", a, w, i)
	}
	a, w, i = HybridParallel.CommPattern()
	if !a || !w || !i {
		t.Errorf("hybrid parallel pattern = %v %v %v", a, w, i)
	}
}

func TestScaleCompute(t *testing.T) {
	def := sampleDef()
	fast := def.ScaleCompute(2)
	if fast.Layers[0].FwdCompute != 500 || fast.Layers[1].WGCompute != 350 {
		t.Errorf("scaled layers = %+v", fast.Layers)
	}
	if def.Layers[0].FwdCompute != 1000 {
		t.Error("ScaleCompute mutated the original")
	}
}

func newInstance(t *testing.T) *system.Instance {
	t.Helper()
	tp, err := topology.NewTorus(2, 2, 1, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.DefaultSystem()
	inst, err := system.NewInstance(tp, cfg, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestTrainerComputeOnly(t *testing.T) {
	def := sampleDef()
	for i := range def.Layers {
		def.Layers[i].WGComm = collectives.None
		def.Layers[i].WGBytes = 0
	}
	tr, err := NewTrainer(newInstance(t), def, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantPerPass := def.TotalComputeCycles()
	if uint64(res.TotalCycles) != 3*wantPerPass {
		t.Errorf("total = %d, want %d (pure compute)", res.TotalCycles, 3*wantPerPass)
	}
	if res.TotalExposed() != 0 {
		t.Errorf("exposed = %d, want 0 without communication", res.TotalExposed())
	}
	if res.TotalCompute() != 3*wantPerPass {
		t.Errorf("compute = %d, want %d", res.TotalCompute(), 3*wantPerPass)
	}
}

func TestTrainerOverlapHidesWGComm(t *testing.T) {
	def := sampleDef()
	// Huge compute: the WG all-reduce of each layer has an entire
	// iteration of compute to hide under.
	for i := range def.Layers {
		def.Layers[i].FwdCompute = 10_000_000
		def.Layers[i].IGCompute = 10_000_000
		def.Layers[i].WGCompute = 10_000_000
		def.Layers[i].UpdatePerKB = 0
	}
	tr, err := NewTrainer(newInstance(t), def, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	// §III-E: "the overheads of the first layer's weight gradient
	// communication in data parallelism is fully exposed given lack of
	// useful compute to overlap". Every other layer hides completely.
	if res.Layers[1].ExposedCycles != 0 {
		t.Errorf("layer 1 exposed = %d, want 0 (hidden under an iteration of compute)",
			res.Layers[1].ExposedCycles)
	}
	if res.Layers[0].ExposedCycles == 0 {
		t.Error("layer 0's weight-gradient comm must be fully exposed (§III-E)")
	}
	if res.TotalComm() == 0 {
		t.Error("raw comm time should still be recorded")
	}
}

func TestTrainerZeroComputeExposesComm(t *testing.T) {
	def := sampleDef()
	for i := range def.Layers {
		def.Layers[i].FwdCompute = 0
		def.Layers[i].IGCompute = 0
		def.Layers[i].WGCompute = 0
		def.Layers[i].UpdatePerKB = 0
	}
	tr, err := NewTrainer(newInstance(t), def, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalExposed() == 0 {
		t.Error("exposed should be nonzero with zero compute")
	}
	if res.ExposedRatio() < 0.9 {
		t.Errorf("exposed ratio = %.2f, want ~1 with zero compute", res.ExposedRatio())
	}
}

func TestTrainerBlockingForwardComm(t *testing.T) {
	def := Definition{
		Name:        "model-parallel",
		Parallelism: ModelParallel,
		Layers: []Layer{
			{Name: "l1", FwdCompute: 1000, IGCompute: 1000, WGCompute: 1000,
				FwdComm: collectives.AllGather, FwdBytes: 256 << 10,
				IGComm: collectives.AllReduce, IGBytes: 256 << 10},
			{Name: "l2", FwdCompute: 1000, IGCompute: 1000, WGCompute: 1000,
				FwdComm: collectives.AllGather, FwdBytes: 256 << 10,
				IGComm: collectives.AllReduce, IGBytes: 256 << 10},
		},
	}
	tr, err := NewTrainer(newInstance(t), def, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Forward activations block entirely; IG all-reduce can hide only
	// under WG compute (1000 cycles).
	if res.TotalExposed() == 0 {
		t.Fatal("model parallel must expose communication")
	}
	for _, l := range res.Layers {
		if l.FwdCommCycles == 0 || l.IGCommCycles == 0 {
			t.Errorf("layer %s missing comm accounting: %+v", l.Name, l)
		}
		// Exposed must be at least the raw forward comm (fully blocking).
		if l.ExposedCycles < l.FwdCommCycles {
			t.Errorf("layer %s exposed %d < blocking fwd comm %d", l.Name, l.ExposedCycles, l.FwdCommCycles)
		}
	}
}

func TestTrainerLocalUpdateDelays(t *testing.T) {
	def := sampleDef()
	for i := range def.Layers {
		def.Layers[i].FwdCompute = 0
		def.Layers[i].IGCompute = 0
		def.Layers[i].WGCompute = 0
	}
	slow := def
	slow.Layers = append([]Layer(nil), def.Layers...)
	for i := range slow.Layers {
		slow.Layers[i].UpdatePerKB = 1000
	}
	run := func(d Definition) uint64 {
		tr, err := NewTrainer(newInstance(t), d, 2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		return uint64(res.TotalCycles)
	}
	if fast, slowT := run(def), run(slow); slowT <= fast {
		t.Errorf("large local update time should slow training: %d vs %d", slowT, fast)
	}
}

// Fig. 18 shape: exposed ratio grows with compute power.
func TestExposedRatioGrowsWithComputeScale(t *testing.T) {
	def := sampleDef()
	for i := range def.Layers {
		def.Layers[i].FwdCompute = 200_000
		def.Layers[i].IGCompute = 200_000
		def.Layers[i].WGCompute = 200_000
		def.Layers[i].WGBytes = 4 << 20
	}
	ratio := func(scale float64) float64 {
		tr, err := NewTrainer(newInstance(t), def.ScaleCompute(scale), 2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.ExposedRatio()
	}
	r05, r1, r4 := ratio(0.5), ratio(1), ratio(4)
	if !(r05 <= r1 && r1 <= r4) {
		t.Errorf("exposed ratio not monotone in compute power: 0.5x=%.3f 1x=%.3f 4x=%.3f", r05, r1, r4)
	}
	if r4 <= r05 {
		t.Errorf("4x compute should expose much more comm than 0.5x: %.3f vs %.3f", r4, r05)
	}
}

// LIFO scheduling prioritizes the first layers' late-issued weight
// gradients (§III-E), so it should never lose to FIFO on a comm-bound
// data-parallel workload.
func TestLIFONotWorseThanFIFO(t *testing.T) {
	def := Definition{Name: "deep", Parallelism: DataParallel}
	for i := 0; i < 8; i++ {
		def.Layers = append(def.Layers, Layer{
			Name:       fmt.Sprintf("l%d", i),
			FwdCompute: 5000, IGCompute: 5000, WGCompute: 5000,
			WGComm: collectives.AllReduce, WGBytes: 2 << 20,
		})
	}
	run := func(policy config.SchedulingPolicy) uint64 {
		tp, err := topology.NewTorus(2, 2, 1, topology.DefaultTorusConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.DefaultSystem()
		cfg.SchedulingPolicy = policy
		inst, err := system.NewInstance(tp, cfg, config.DefaultNetwork())
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTrainer(inst, def, 2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		return uint64(res.TotalCycles)
	}
	lifo, fifo := run(config.LIFO), run(config.FIFO)
	if lifo > fifo {
		t.Errorf("LIFO (%d) slower than FIFO (%d) on comm-bound data parallel", lifo, fifo)
	}
}

func TestNewTrainerValidation(t *testing.T) {
	if _, err := NewTrainer(newInstance(t), Definition{Name: "empty"}, 1); err == nil {
		t.Error("expected error for empty definition")
	}
	if _, err := NewTrainer(newInstance(t), sampleDef(), 0); err == nil {
		t.Error("expected error for zero passes")
	}
}

func TestTrainerDeterminism(t *testing.T) {
	run := func() uint64 {
		tr, err := NewTrainer(newInstance(t), sampleDef(), 2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		return uint64(res.TotalCycles)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic training time: %d vs %d", a, b)
	}
}

func TestAutoPartitionBalances(t *testing.T) {
	def := sampleDef()
	def.Layers = append(def.Layers, def.Layers...) // 4 layers
	b := AutoPartition(def, 2)
	if len(b) != 1 || b[0] < 1 || b[0] >= len(def.Layers) {
		t.Fatalf("boundaries = %v", b)
	}
	if AutoPartition(def, 1) != nil {
		t.Error("1 stage should return nil")
	}
	if AutoPartition(def, 100) != nil {
		t.Error("more stages than layers should return nil")
	}
	b4 := AutoPartition(def, 4)
	if len(b4) != 3 {
		t.Fatalf("4-stage boundaries = %v", b4)
	}
	for i := 1; i < len(b4); i++ {
		if b4[i] <= b4[i-1] {
			t.Fatalf("boundaries not strictly ascending: %v", b4)
		}
	}
}

func TestPipelineConfigValidate(t *testing.T) {
	good := PipelineConfig{
		Boundaries:    []int{1},
		StageNodes:    []topology.Node{0, 1},
		Microbatches:  4,
		BoundaryBytes: []int64{1024},
	}
	if err := good.Validate(2); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Microbatches = 0
	if err := bad.Validate(2); err == nil {
		t.Error("expected error for zero microbatches")
	}
	bad = good
	bad.Boundaries = []int{5}
	if err := bad.Validate(2); err == nil {
		t.Error("expected error for out-of-range boundary")
	}
	bad = good
	bad.BoundaryBytes = nil
	if err := bad.Validate(2); err == nil {
		t.Error("expected error for missing boundary bytes")
	}
}

// Both pipeline front ends open with one check, so a bad pass count reads
// the same whether it reaches the dynamic scheduler or the 1F1B graph.
func TestPipelineFrontEndsRejectZeroPassesAlike(t *testing.T) {
	tp, err := topology.NewTorus(1, 2, 1, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := system.NewInstance(tp, config.DefaultSystem(), config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	def := Definition{Name: "pipe", Parallelism: ModelParallel, Layers: []Layer{
		{Name: "a", FwdCompute: 100}, {Name: "b", FwdCompute: 100},
	}}
	cfg := PipelineConfig{
		Boundaries:    []int{1},
		StageNodes:    []topology.Node{0, 1},
		Microbatches:  2,
		BoundaryBytes: []int64{1024},
	}
	_, dynErr := RunPipeline(inst, def, cfg, 0)
	_, graphErr := Pipeline1F1B(def, cfg, 0)
	const want = "workload: passes must be positive, got 0"
	if dynErr == nil || graphErr == nil || dynErr.Error() != want || graphErr.Error() != want {
		t.Errorf("RunPipeline: %v; Pipeline1F1B: %v; want both %q", dynErr, graphErr, want)
	}
}

func TestPipelineRuns(t *testing.T) {
	tp, err := topology.NewTorus(1, 4, 1, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.DefaultSystem()
	inst, err := system.NewInstance(tp, cfg, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	def := Definition{Name: "pipe", Parallelism: ModelParallel}
	for i := 0; i < 8; i++ {
		def.Layers = append(def.Layers, Layer{
			Name: "l", FwdCompute: 8000, IGCompute: 8000, WGCompute: 8000,
		})
	}
	pcfg := PipelineConfig{
		Boundaries:    []int{2, 4, 6},
		StageNodes:    []topology.Node{0, 1, 2, 3},
		Microbatches:  8,
		BoundaryBytes: []int64{64 << 10, 64 << 10, 64 << 10},
	}
	res, err := RunPipeline(inst, def, pcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles == 0 {
		t.Fatal("zero total")
	}
	if len(res.Stages) != 4 {
		t.Fatalf("stages = %d", len(res.Stages))
	}
	// Total compute is conserved: each stage computed its share.
	var total uint64
	for _, s := range res.Stages {
		total += s.ComputeCycles
		if s.ComputeCycles == 0 {
			t.Error("stage with zero compute")
		}
	}
	want := def.TotalComputeCycles()
	if total != want {
		t.Errorf("total stage compute %d != definition %d", total, want)
	}
	if res.BubbleRatio <= 0 || res.BubbleRatio >= 1 {
		t.Errorf("bubble ratio = %v, want in (0,1)", res.BubbleRatio)
	}
	// Lower bound: the critical path is at least one microbatch through
	// all stages plus the busiest stage's full load.
	perStage := uint64(8000 * 3 * 2 / 4) // 2 layers/stage, per microbatch with M=8: 48000/8=6000
	_ = perStage
}

// More microbatches shrink the pipeline bubble (the GPipe tradeoff).
func TestPipelineBubbleShrinksWithMicrobatches(t *testing.T) {
	run := func(m int) float64 {
		tp, err := topology.NewTorus(1, 4, 1, topology.DefaultTorusConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.DefaultSystem()
		inst, err := system.NewInstance(tp, cfg, config.DefaultNetwork())
		if err != nil {
			t.Fatal(err)
		}
		def := Definition{Name: "pipe", Parallelism: ModelParallel}
		for i := 0; i < 4; i++ {
			def.Layers = append(def.Layers, Layer{
				Name: "l", FwdCompute: 64000, IGCompute: 64000, WGCompute: 64000,
			})
		}
		res, err := RunPipeline(inst, def, PipelineConfig{
			Boundaries:    []int{1, 2, 3},
			StageNodes:    []topology.Node{0, 1, 2, 3},
			Microbatches:  m,
			BoundaryBytes: []int64{32 << 10, 32 << 10, 32 << 10},
		}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res.BubbleRatio
	}
	b2, b16 := run(2), run(16)
	if b16 >= b2 {
		t.Errorf("bubble with 16 microbatches (%v) not smaller than with 2 (%v)", b16, b2)
	}
}

// 1F1B lets backwards overtake queued forwards, draining the pipeline no
// later than GPipe.
func TestPipeline1F1BNotSlowerThanGPipe(t *testing.T) {
	run := func(sched PipelineSchedule) uint64 {
		tp, err := topology.NewTorus(1, 4, 1, topology.DefaultTorusConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.DefaultSystem()
		inst, err := system.NewInstance(tp, cfg, config.DefaultNetwork())
		if err != nil {
			t.Fatal(err)
		}
		def := Definition{Name: "pipe", Parallelism: ModelParallel}
		for i := 0; i < 4; i++ {
			def.Layers = append(def.Layers, Layer{
				Name: "l", FwdCompute: 40000, IGCompute: 40000, WGCompute: 40000,
			})
		}
		res, err := RunPipeline(inst, def, PipelineConfig{
			Boundaries:    []int{1, 2, 3},
			StageNodes:    []topology.Node{0, 1, 2, 3},
			Microbatches:  8,
			BoundaryBytes: []int64{32 << 10, 32 << 10, 32 << 10},
			Schedule:      sched,
		}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(res.TotalCycles)
	}
	gpipe, ofob := run(GPipeSchedule), run(OneFOneBSchedule)
	if ofob > gpipe {
		t.Errorf("1F1B (%d) slower than GPipe (%d)", ofob, gpipe)
	}
}

func TestScopedWorkloadFileRoundTrip(t *testing.T) {
	def := sampleDef()
	def.Parallelism = HybridParallel
	def.Layers[0].FwdComm = collectives.AllGather
	def.Layers[0].FwdScope = "vertical"
	def.Layers[0].FwdBytes = 4096
	def.Layers[0].WGScope = "local+horizontal"
	var buf bytes.Buffer
	if err := Write(&buf, def); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ALLGATHER@vertical") ||
		!strings.Contains(buf.String(), "ALLREDUCE@local+horizontal") {
		t.Fatalf("scope suffix missing:\n%s", buf.String())
	}
	got, err := Parse("scoped", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Layers[0].FwdScope != "vertical" || got.Layers[0].WGScope != "local+horizontal" {
		t.Errorf("scopes lost in round trip: %+v", got.Layers[0])
	}
	// Bad scope in a file is a parse error.
	badInput := "DATA\n1\nl\n1 1 1\nNONE NONE ALLREDUCE@sideways\n0 0 10\n0\n"
	if _, err := Parse("bad", strings.NewReader(badInput)); err == nil {
		t.Error("expected error for unknown scope dimension")
	}
}

// A hybrid Transformer trains with scoped collectives; vertical-scoped
// activation exchanges move no horizontal-dimension traffic.
func TestScopedTrainingRuns(t *testing.T) {
	tp, err := topology.NewTorus(2, 2, 2, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.DefaultSystem()
	inst, err := system.NewInstance(tp, cfg, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	def := Definition{Name: "scoped", Parallelism: HybridParallel,
		Layers: []Layer{{
			Name: "enc", FwdCompute: 1000, IGCompute: 1000, WGCompute: 1000,
			FwdComm: collectives.AllGather, FwdScope: "vertical", FwdBytes: 256 << 10,
			IGComm: collectives.AllReduce, IGScope: "vertical", IGBytes: 256 << 10,
			WGComm: collectives.AllReduce, WGScope: "local+horizontal", WGBytes: 256 << 10,
		}}}
	tr, err := NewTrainer(inst, def, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Layers[0].FwdCommCycles == 0 || res.Layers[0].WGCommCycles == 0 {
		t.Errorf("scoped collectives not accounted: %+v", res.Layers[0])
	}
}

// A stage-boundary send the system layer refuses ends the run with an
// error instead of a panic inside the event handler: the partitioned
// packet engine has no point-to-point sends.
func TestPipelineReturnsSendError(t *testing.T) {
	tp, err := topology.NewTorus(1, 8, 1, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.DefaultSystem()
	cfg.IntraParallel = 2
	inst, err := system.NewInstance(tp, cfg, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	def := Definition{Name: "pipe", Parallelism: ModelParallel}
	for i := 0; i < 2; i++ {
		def.Layers = append(def.Layers, Layer{Name: "l", FwdCompute: 8000, IGCompute: 8000, WGCompute: 8000})
	}
	_, err = RunPipeline(inst, def, PipelineConfig{
		Boundaries:    []int{1},
		StageNodes:    []topology.Node{0, 1},
		Microbatches:  4,
		BoundaryBytes: []int64{64 << 10},
	}, 1)
	if err == nil || !strings.Contains(err.Error(), "intra-run parallelism") {
		t.Fatalf("RunPipeline = %v, want the refused point-to-point send", err)
	}
}
