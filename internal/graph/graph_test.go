package graph_test

import (
	"bytes"
	"strings"
	"testing"

	"astrasim/internal/audit"
	"astrasim/internal/collectives"
	"astrasim/internal/compute"
	"astrasim/internal/eventq"
	"astrasim/internal/faults"
	"astrasim/internal/graph"
	"astrasim/internal/topology"
	"astrasim/internal/workload"
)

func validGraph() *graph.Graph {
	return &graph.Graph{
		Version: graph.FormatVersion,
		Name:    "t",
		Passes:  1,
		Nodes: []graph.Node{
			{ID: "a", Kind: graph.KindComp, Cycles: 100},
			{ID: "c", Kind: graph.KindComm, Deps: []string{"a"}, Op: "ALLREDUCE", Bytes: 1 << 20},
		},
	}
}

func TestParseWriteRoundTrip(t *testing.T) {
	g := validGraph()
	g.Nodes = append(g.Nodes,
		graph.Node{ID: "g", Kind: graph.KindComp, GEMM: &graph.GEMMSpec{M: 64, K: 64, N: 64}, Deps: []string{"c"}},
		graph.Node{ID: "m", Kind: graph.KindMem, Bytes: 4096, Deps: []string{"g"}},
		graph.Node{ID: "s", Kind: graph.KindSend, Peer: "r", Src: 0, Dst: 1, Bytes: 2048, Deps: []string{"m"}},
		graph.Node{ID: "r", Kind: graph.KindRecv, Peer: "s", Replica: 1},
	)
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := graph.Parse("t", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Parse: %v\njson:\n%s", err, buf.String())
	}
	if got.Name != g.Name || got.Passes != g.Passes || len(got.Nodes) != len(g.Nodes) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range g.Nodes {
		w, r := g.Nodes[i], got.Nodes[i]
		if w.ID != r.ID || w.Kind != r.Kind || w.Cycles != r.Cycles || w.Bytes != r.Bytes {
			t.Errorf("node %d: got %+v, want %+v", i, r, w)
		}
	}
	if got.Nodes[2].GEMM == nil || *got.Nodes[2].GEMM != (graph.GEMMSpec{M: 64, K: 64, N: 64}) {
		t.Errorf("gemm spec lost: %+v", got.Nodes[2].GEMM)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	in := `{"version":1,"nodes":[{"id":"a","kind":"COMP","cycles":1,"bogus":true}]}`
	if _, err := graph.Parse("t", strings.NewReader(in)); err == nil {
		t.Fatal("expected unknown-field error")
	}
}

func TestValidateErrors(t *testing.T) {
	mut := func(f func(*graph.Graph)) *graph.Graph { g := validGraph(); f(g); return g }
	cases := map[string]*graph.Graph{
		"bad version":      mut(func(g *graph.Graph) { g.Version = 2 }),
		"no nodes":         mut(func(g *graph.Graph) { g.Nodes = nil }),
		"bad passes":       mut(func(g *graph.Graph) { g.Passes = 0 }),
		"empty id":         mut(func(g *graph.Graph) { g.Nodes[0].ID = "" }),
		"dup id":           mut(func(g *graph.Graph) { g.Nodes[1].ID = "a"; g.Nodes[1].Deps = nil }),
		"unknown dep":      mut(func(g *graph.Graph) { g.Nodes[1].Deps = []string{"zz"} }),
		"self dep":         mut(func(g *graph.Graph) { g.Nodes[1].Deps = []string{"c"} }),
		"dup dep":          mut(func(g *graph.Graph) { g.Nodes[1].Deps = []string{"a", "a"} }),
		"unknown kind":     mut(func(g *graph.Graph) { g.Nodes[0].Kind = "NOP" }),
		"bad pass":         mut(func(g *graph.Graph) { g.Nodes[0].Pass = "bwd" }),
		"neg replica":      mut(func(g *graph.Graph) { g.Nodes[0].Replica = -1 }),
		"comp gemm+cycles": mut(func(g *graph.Graph) { g.Nodes[0].GEMM = &graph.GEMMSpec{M: 1, K: 1, N: 1} }),
		"comp bad gemm":    mut(func(g *graph.Graph) { g.Nodes[0].Cycles = 0; g.Nodes[0].GEMM = &graph.GEMMSpec{M: 0, K: 1, N: 1} }),
		"comm bad op":      mut(func(g *graph.Graph) { g.Nodes[1].Op = "BCAST" }),
		"comm none op":     mut(func(g *graph.Graph) { g.Nodes[1].Op = "NONE" }),
		"comm no bytes":    mut(func(g *graph.Graph) { g.Nodes[1].Bytes = 0 }),
		"comm bad scope":   mut(func(g *graph.Graph) { g.Nodes[1].Scope = "diagonal" }),
		"comm with peer":   mut(func(g *graph.Graph) { g.Nodes[1].Peer = "a" }),
		"mem no bytes": mut(func(g *graph.Graph) {
			g.Nodes[1] = graph.Node{ID: "m", Kind: graph.KindMem, Bytes: 0}
		}),
		"send no peer": mut(func(g *graph.Graph) {
			g.Nodes[1] = graph.Node{ID: "s", Kind: graph.KindSend, Src: 0, Dst: 1, Bytes: 8}
		}),
		"send peer not recv": mut(func(g *graph.Graph) {
			g.Nodes[1] = graph.Node{ID: "s", Kind: graph.KindSend, Peer: "a", Src: 0, Dst: 1, Bytes: 8}
		}),
		"recv with payload": mut(func(g *graph.Graph) {
			g.Nodes = append(g.Nodes,
				graph.Node{ID: "s", Kind: graph.KindSend, Peer: "r", Src: 0, Dst: 1, Bytes: 8},
				graph.Node{ID: "r", Kind: graph.KindRecv, Peer: "s", Bytes: 8})
		}),
		"unpaired peers": mut(func(g *graph.Graph) {
			g.Nodes = append(g.Nodes,
				graph.Node{ID: "s1", Kind: graph.KindSend, Peer: "r", Src: 0, Dst: 1, Bytes: 8},
				graph.Node{ID: "s2", Kind: graph.KindSend, Peer: "r", Src: 0, Dst: 1, Bytes: 8},
				graph.Node{ID: "r", Kind: graph.KindRecv, Peer: "s1"})
		}),
	}
	for name, g := range cases {
		if err := g.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
	if err := validGraph().Validate(); err != nil {
		t.Errorf("valid graph rejected: %v", err)
	}
}

func TestValidateNamesCycle(t *testing.T) {
	g := &graph.Graph{
		Version: graph.FormatVersion,
		Passes:  1,
		Nodes: []graph.Node{
			{ID: "a", Kind: graph.KindComp, Cycles: 1, Deps: []string{"c"}},
			{ID: "b", Kind: graph.KindComp, Cycles: 1, Deps: []string{"a"}},
			{ID: "c", Kind: graph.KindComp, Cycles: 1, Deps: []string{"b"}},
		},
	}
	err := g.Validate()
	if err == nil {
		t.Fatal("expected cycle error")
	}
	msg := err.Error()
	for _, id := range []string{"a", "b", "c"} {
		if !strings.Contains(msg, id) {
			t.Errorf("cycle error %q does not name node %s", msg, id)
		}
	}
}

func TestEngineGEMMAndMemNodes(t *testing.T) {
	model := compute.Default()
	g := &graph.Graph{
		Version: graph.FormatVersion,
		Name:    "gemm-mem",
		Passes:  1,
		Nodes: []graph.Node{
			{ID: "g", Kind: graph.KindComp, GEMM: &graph.GEMMSpec{M: 512, K: 512, N: 512}},
			{ID: "m", Kind: graph.KindMem, Bytes: 1 << 20, Deps: []string{"g"}},
		},
	}
	res, err := graph.Run(newTorusInstance(t), g)
	if err != nil {
		t.Fatal(err)
	}
	want := model.GEMMCycles(compute.GEMM{M: 512, K: 512, N: 512}) + model.MemCycles(1<<20)
	if uint64(res.TotalCycles) != want {
		t.Errorf("TotalCycles = %d, want %d", res.TotalCycles, want)
	}
	if res.TotalCompute() != want {
		t.Errorf("TotalCompute = %d, want %d", res.TotalCompute(), want)
	}
}

func TestEngineLaneSerializesReplica(t *testing.T) {
	// Two independent 100-cycle COMP nodes on the same replica must
	// serialize (200 total); on different replicas they overlap (100).
	mk := func(rep1 int) *graph.Graph {
		return &graph.Graph{
			Version: graph.FormatVersion, Name: "lanes", Passes: 1,
			Nodes: []graph.Node{
				{ID: "a", Kind: graph.KindComp, Cycles: 100, Replica: 0},
				{ID: "b", Kind: graph.KindComp, Cycles: 100, Replica: rep1},
			},
		}
	}
	same, err := graph.Run(newTorusInstance(t), mk(0))
	if err != nil {
		t.Fatal(err)
	}
	diff, err := graph.Run(newTorusInstance(t), mk(1))
	if err != nil {
		t.Fatal(err)
	}
	if same.TotalCycles != 200 || diff.TotalCycles != 100 {
		t.Errorf("same-lane = %d (want 200), cross-lane = %d (want 100)",
			same.TotalCycles, diff.TotalCycles)
	}
}

func TestEngineSendRecvRendezvous(t *testing.T) {
	g := &graph.Graph{
		Version: graph.FormatVersion, Name: "p2p", Passes: 1,
		Nodes: []graph.Node{
			{ID: "w", Kind: graph.KindComp, Cycles: 50, Replica: 0},
			{ID: "s", Kind: graph.KindSend, Peer: "r", Src: 0, Dst: 1, Bytes: 64 << 10,
				Deps: []string{"w"}, Replica: 0},
			{ID: "r", Kind: graph.KindRecv, Peer: "s", Replica: 1, Layer: "xfer"},
			{ID: "use", Kind: graph.KindComp, Cycles: 10, Deps: []string{"r"}, Replica: 1},
		},
	}
	res, err := graph.Run(newTorusInstance(t), g)
	if err != nil {
		t.Fatal(err)
	}
	// Delivery cannot be instant: total > send issue (50) + use (10).
	if res.TotalCycles <= 60 {
		t.Errorf("TotalCycles = %d, expected transfer latency beyond 60", res.TotalCycles)
	}
	var xfer *graph.LayerStats
	for i := range res.Layers {
		if res.Layers[i].Name == "xfer" {
			xfer = &res.Layers[i]
		}
	}
	if xfer == nil {
		t.Fatal("no xfer stats row")
	}
	if xfer.FwdCommCycles == 0 {
		t.Error("RECV accrued no raw comm time")
	}
	// The RECV armed at cycle 0 but the SEND only issued at 50: raw comm
	// counts from the send, so it must be less than the full makespan.
	if xfer.FwdCommCycles >= uint64(res.TotalCycles) {
		t.Errorf("raw comm %d should exclude pre-send slack (total %d)",
			xfer.FwdCommCycles, res.TotalCycles)
	}
}

func TestEngineDetectsStuckRecv(t *testing.T) {
	// A validated graph cannot deadlock, but a graph whose SEND targets
	// an endpoint equal to the receiver (src == dst) still delivers; to
	// exercise the stuck report we fabricate an engine error path via an
	// out-of-range endpoint instead.
	g := &graph.Graph{
		Version: graph.FormatVersion, Name: "oob", Passes: 1,
		Nodes: []graph.Node{
			{ID: "s", Kind: graph.KindSend, Peer: "r", Src: 0, Dst: 99, Bytes: 8},
			{ID: "r", Kind: graph.KindRecv, Peer: "s"},
		},
	}
	if _, err := graph.NewEngine(newTorusInstance(t), g, graph.Options{}); err == nil {
		t.Fatal("expected endpoint-range error")
	}
}

// TestEngineRejectsOutOfRangeReplica: a replica names an NPU, so one
// past the topology's last NPU is refused when the engine is built, by
// the same check the daemon answers 400 with.
func TestEngineRejectsOutOfRangeReplica(t *testing.T) {
	g := &graph.Graph{
		Version: graph.FormatVersion, Name: "replica", Passes: 1,
		Nodes: []graph.Node{{ID: "c", Kind: graph.KindComp, Cycles: 10, Replica: 8}},
	}
	_, err := graph.NewEngine(newTorusInstance(t), g, graph.Options{})
	if err == nil || !strings.Contains(err.Error(), "replica 8 out of range (8 NPUs)") {
		t.Fatalf("err = %v, want the replica range error", err)
	}
	g.Nodes[0].Replica = 7
	if err := g.CheckEndpoints(8); err != nil {
		t.Fatalf("replica 7 of 8 NPUs refused: %v", err)
	}
}

func TestEngineRejectsBadScope(t *testing.T) {
	g := &graph.Graph{
		Version: graph.FormatVersion, Name: "scope", Passes: 1,
		Nodes: []graph.Node{
			{ID: "c", Kind: graph.KindComm, Op: "ALLREDUCE", Scope: "vertical", Bytes: 1 << 10},
		},
	}
	// 2x2 alltoall has no vertical dimension to scope over.
	if _, err := graph.NewEngine(newA2AInstance(t), g, graph.Options{}); err == nil {
		t.Fatal("expected scope/topology mismatch error")
	}
}

func TestMicrobenchRuns(t *testing.T) {
	g, err := graph.Microbench(collectives.AllReduce, 1<<20, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := graph.Run(newTorusInstance(t), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers) != 3 {
		t.Fatalf("lanes = %d, want 3", len(res.Layers))
	}
	for _, l := range res.Layers {
		if len(l.FwdHandles) != 2 {
			t.Errorf("%s: %d collectives, want 2", l.Name, len(l.FwdHandles))
		}
		if l.FwdCommCycles == 0 {
			t.Errorf("%s: no raw comm accrued", l.Name)
		}
	}
}

func pipelineFixture() (workload.Definition, workload.PipelineConfig) {
	def := workload.Definition{
		Name:        "pipe",
		Parallelism: workload.DataParallel,
		Layers: []workload.Layer{
			{Name: "l0", FwdCompute: 80000, IGCompute: 80000, WGCompute: 80000},
			{Name: "l1", FwdCompute: 80000, IGCompute: 80000, WGCompute: 80000},
			{Name: "l2", FwdCompute: 80000, IGCompute: 80000, WGCompute: 80000},
			{Name: "l3", FwdCompute: 80000, IGCompute: 80000, WGCompute: 80000},
		},
	}
	cfg := workload.PipelineConfig{
		Boundaries:    []int{1, 2, 3},
		StageNodes:    []topology.Node{0, 1, 2, 3},
		Microbatches:  4,
		BoundaryBytes: []int64{16 << 10, 16 << 10, 16 << 10},
	}
	return def, cfg
}

// TestPipeline1F1BEndToEnd is the acceptance run: the generated 1F1B
// graph replays with zero audit violations, and a lossy network with the
// retry protocol recovers (retransmits observed, run still completes).
func TestPipeline1F1BEndToEnd(t *testing.T) {
	def, cfg := pipelineFixture()
	g, err := workload.Pipeline1F1B(def, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}

	inst := newTorusInstance(t)
	aud := audit.Attach(inst.Sys)
	res, err := graph.Run(inst, g)
	if err != nil {
		t.Fatal(err)
	}
	if rep := aud.Report(); len(rep.Violations) > 0 {
		t.Fatalf("audit violations: %v", rep.Violations)
	}
	if res.TotalCycles == 0 {
		t.Fatal("pipeline replay finished at cycle 0")
	}
	br := graph.PipelineBubbleRatio(res, 4)
	if br <= 0 || br >= 1 {
		t.Errorf("bubble ratio = %v, want in (0,1)", br)
	}
	// More microbatches amortize the fill/drain bubble (the boundary
	// tensor halves with the microbatch, as it would in a real split).
	cfg8 := cfg
	cfg8.Microbatches = 8
	cfg8.BoundaryBytes = []int64{8 << 10, 8 << 10, 8 << 10}
	g8, err := workload.Pipeline1F1B(def, cfg8, 2)
	if err != nil {
		t.Fatal(err)
	}
	res8, err := graph.Run(newTorusInstance(t), g8)
	if err != nil {
		t.Fatal(err)
	}
	if br8 := graph.PipelineBubbleRatio(res8, 4); br8 >= br {
		t.Errorf("bubble ratio did not shrink with more microbatches: %v -> %v", br, br8)
	}

	// Fault plan: drop packets on inter-package links, recover via retry.
	plan := &faults.Plan{
		Seed:  7,
		Drops: []faults.Drop{{LinkSet: faults.LinkSet{Class: "inter"}, Probability: 0.002}},
		Retry: &faults.Retry{Timeout: 20000, Backoff: 2, MaxRetries: 30},
	}
	finst := newTorusInstance(t)
	if err := faults.Apply(plan, finst); err != nil {
		t.Fatal(err)
	}
	fres, err := graph.Run(finst, g)
	if err != nil {
		t.Fatal(err)
	}
	if fres.TotalCycles < res.TotalCycles {
		t.Errorf("lossy run (%d) finished before the clean run (%d)", fres.TotalCycles, res.TotalCycles)
	}
	if finst.Sys.RetransmittedBytes() == 0 {
		t.Error("drop plan injected no retransmits (seed too lucky?)")
	}
}

// TestConvertedGraphSurvivesDump ensures dump -> parse -> replay matches
// the direct replay (the -graph-dump path).
func TestConvertedGraphSurvivesDump(t *testing.T) {
	def := syntheticModel()
	g, err := workload.FromDefinition(def, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := graph.Parse("dump", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := graph.Run(newTorusInstance(t), g)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := graph.Run(newTorusInstance(t), g2)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, toGolden(r1), r2)
}

func TestFromDefinitionRejectsDuplicateLayers(t *testing.T) {
	def := syntheticData()
	def.Layers[1].Name = def.Layers[0].Name
	if _, err := workload.FromDefinition(def, 1); err == nil {
		t.Fatal("expected duplicate-layer error")
	}
}

func TestEngineZeroCycleGraph(t *testing.T) {
	// An all-zero-cost chain completes at cycle 0 without hanging.
	g := &graph.Graph{
		Version: graph.FormatVersion, Name: "zero", Passes: 1,
		Nodes: []graph.Node{
			{ID: "a", Kind: graph.KindComp, Cycles: 0},
			{ID: "b", Kind: graph.KindComp, Cycles: 0, Deps: []string{"a"}},
		},
	}
	res, err := graph.Run(newTorusInstance(t), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles != eventq.Time(0) {
		t.Errorf("TotalCycles = %d, want 0", res.TotalCycles)
	}
}
