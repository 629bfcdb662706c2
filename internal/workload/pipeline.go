package workload

import (
	"fmt"

	"astrasim/internal/eventq"
	"astrasim/internal/graph"
	"astrasim/internal/system"
	"astrasim/internal/topology"
)

// PipelineConfig describes a GPipe-style pipeline-parallel execution —
// the third parallelization strategy §III-A names ("data parallelism,
// model parallelism, pipelined parallelism, or some combination").
// Layers are partitioned into consecutive stages, each hosted on one NPU;
// a minibatch is split into microbatches that flow through the stages,
// with activation tensors crossing each stage boundary point-to-point in
// the forward direction and gradient tensors in the backward direction.
type PipelineConfig struct {
	// Boundaries are the layer indices where a new stage begins
	// (ascending, exclusive of 0): with L layers and Boundaries [a, b],
	// stage 0 = layers [0,a), stage 1 = [a,b), stage 2 = [b,L).
	Boundaries []int
	// StageNodes lists the NPU hosting each stage (len(Boundaries)+1).
	StageNodes []topology.Node
	// Microbatches is how many microbatches the minibatch splits into.
	Microbatches int
	// BoundaryBytes[s] is the activation (and gradient) tensor size
	// crossing the boundary between stage s and s+1, per microbatch.
	BoundaryBytes []int64
	// Schedule selects the per-stage job order (default GPipe).
	Schedule PipelineSchedule
}

// PipelineSchedule orders a stage's pending microbatch work.
type PipelineSchedule int

const (
	// GPipeSchedule runs jobs in arrival order: all forwards flow
	// through, then all backwards (Huang et al. 2019).
	GPipeSchedule PipelineSchedule = iota
	// OneFOneBSchedule prioritizes backward jobs over queued forward
	// jobs (PipeDream-style 1F1B): backwards start as soon as they
	// arrive, draining the pipeline earlier and bounding the number of
	// in-flight activations.
	OneFOneBSchedule
)

func (s PipelineSchedule) String() string {
	if s == OneFOneBSchedule {
		return "1F1B"
	}
	return "GPipe"
}

// Validate reports the first inconsistency.
func (c PipelineConfig) Validate(layers int) error {
	s := len(c.Boundaries) + 1
	if s < 2 {
		return fmt.Errorf("workload: pipeline needs >= 2 stages")
	}
	if len(c.StageNodes) != s {
		return fmt.Errorf("workload: %d stage nodes for %d stages", len(c.StageNodes), s)
	}
	if c.Microbatches <= 0 {
		return fmt.Errorf("workload: microbatches must be positive")
	}
	if len(c.BoundaryBytes) != s-1 {
		return fmt.Errorf("workload: %d boundary sizes for %d boundaries", len(c.BoundaryBytes), s-1)
	}
	prev := 0
	for _, b := range c.Boundaries {
		if b <= prev || b >= layers {
			return fmt.Errorf("workload: boundary %d out of order or range (layers=%d)", b, layers)
		}
		prev = b
	}
	for i, b := range c.BoundaryBytes {
		if b <= 0 {
			return fmt.Errorf("workload: boundary %d bytes must be positive", i)
		}
	}
	return nil
}

// AutoPartition cuts the definition into stages of roughly equal total
// compute (greedy prefix sums) and returns the boundaries.
func AutoPartition(def Definition, stages int) []int {
	if stages < 2 || stages > len(def.Layers) {
		return nil
	}
	total := def.TotalComputeCycles()
	per := total / uint64(stages)
	var boundaries []int
	var acc uint64
	for i, l := range def.Layers {
		acc += l.FwdCompute + l.IGCompute + l.WGCompute
		if acc >= per && len(boundaries) < stages-1 && i+1 < len(def.Layers) {
			boundaries = append(boundaries, i+1)
			acc = 0
		}
	}
	// Degenerate compute distributions may leave too few cuts; fill from
	// the tail with unused indices.
	used := make(map[int]bool, len(boundaries))
	for _, b := range boundaries {
		used[b] = true
	}
	for i := len(def.Layers) - 1; i >= 1 && len(boundaries) < stages-1; i-- {
		if !used[i] {
			used[i] = true
			boundaries = append(boundaries, i)
		}
	}
	sortInts(boundaries)
	return boundaries
}

func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// PipelineStageStats is one stage's accounting.
type PipelineStageStats struct {
	Node          topology.Node
	Layers        int
	ComputeCycles uint64
	// Utilization is compute / total wall time.
	Utilization float64
}

// PipelineResult is the outcome of a pipeline-parallel simulation.
type PipelineResult struct {
	TotalCycles eventq.Time
	Stages      []PipelineStageStats
	// BubbleRatio is the idle fraction across stages (the pipeline
	// "bubble"): 1 - sum(compute) / (stages x total).
	BubbleRatio float64
}

// pipeJob is one (microbatch, direction) unit of work on a stage.
type pipeJob struct {
	micro    int
	backward bool
	cycles   uint64
	done     func()
}

// pipeStage executes jobs one at a time, ordered by the schedule.
type pipeStage struct {
	eng      *eventq.Engine
	node     topology.Node
	schedule PipelineSchedule
	busy     bool
	queue    []pipeJob
	compute  uint64
}

func (st *pipeStage) enqueue(j pipeJob) {
	if st.schedule == OneFOneBSchedule && j.backward {
		// Backward jobs overtake queued forward jobs (stable among
		// backwards).
		at := len(st.queue)
		for i, q := range st.queue {
			if !q.backward {
				at = i
				break
			}
		}
		rest := append([]pipeJob{}, st.queue[at:]...)
		st.queue = append(append(st.queue[:at:at], j), rest...)
	} else {
		st.queue = append(st.queue, j)
	}
	st.kick()
}

func (st *pipeStage) kick() {
	if st.busy || len(st.queue) == 0 {
		return
	}
	j := st.queue[0]
	st.queue = st.queue[1:]
	st.busy = true
	st.eng.Schedule(eventq.Time(j.cycles), func() {
		st.compute += j.cycles
		st.busy = false
		j.done()
		st.kick()
	})
}

// checkPipeline is the opening check both pipeline front ends
// (RunPipeline, Pipeline1F1B) share: def, cfg against def's layers, and a
// positive pass count.
func checkPipeline(def Definition, cfg PipelineConfig, passes int) error {
	if err := def.Validate(); err != nil {
		return err
	}
	if err := cfg.Validate(len(def.Layers)); err != nil {
		return err
	}
	if passes <= 0 {
		return fmt.Errorf("workload: passes must be positive, got %d", passes)
	}
	return nil
}

// stageCompute splits def's layers into cfg's stages: stage s holds
// layers [bounds[s], bounds[s+1]), and fwd[s] and bwd[s] are its forward
// and backward (input- plus weight-gradient) compute per microbatch, each
// layer's cycles divided evenly across the microbatches. Both pipeline
// frontends, RunPipeline and Pipeline1F1B, run the stages this split.
func stageCompute(def Definition, cfg PipelineConfig) (bounds []int, fwd, bwd []uint64) {
	bounds = append(append([]int{0}, cfg.Boundaries...), len(def.Layers))
	M := uint64(cfg.Microbatches)
	fwd = make([]uint64, len(bounds)-1)
	bwd = make([]uint64, len(bounds)-1)
	for s := range fwd {
		for _, l := range def.Layers[bounds[s]:bounds[s+1]] {
			fwd[s] += l.FwdCompute / M
			bwd[s] += (l.IGCompute + l.WGCompute) / M
		}
	}
	return bounds, fwd, bwd
}

// RunPipeline simulates GPipe-style pipeline-parallel training of def for
// the given number of passes over inst's fabric. Each stage's per-layer
// compute is divided evenly across microbatches; stage-boundary tensors
// travel point-to-point over the shortest physical route. Collective
// fields of the definition are ignored (pure pipeline: no gradient
// exchange between the single replicas).
func RunPipeline(inst *system.Instance, def Definition, cfg PipelineConfig, passes int) (PipelineResult, error) {
	if err := checkPipeline(def, cfg, passes); err != nil {
		return PipelineResult{}, err
	}
	numStages := len(cfg.Boundaries) + 1
	M := cfg.Microbatches
	bounds, fwd, bwd := stageCompute(def, cfg)

	stages := make([]*pipeStage, numStages)
	for s := range stages {
		stages[s] = &pipeStage{eng: inst.Eng, node: cfg.StageNodes[s], schedule: cfg.Schedule}
	}

	finished := false
	var endAt eventq.Time
	bwdDone := 0
	var runPass func(pass int)
	// send carries a boundary tensor between stages. The first send the
	// system layer refuses aborts the run, and RunPipeline returns it.
	send := func(src, dst int, bytes int64, recv func()) {
		if inst.Eng.Err() != nil {
			return
		}
		if err := inst.Sys.SendPointToPoint(cfg.StageNodes[src], cfg.StageNodes[dst], bytes, recv); err != nil {
			inst.Eng.Abort(fmt.Errorf("workload: pipeline boundary send stage %d -> %d: %w", src, dst, err))
		}
	}

	var fwdStart, bwdStart func(pass, s, m int)
	fwdStart = func(pass, s, m int) {
		stages[s].enqueue(pipeJob{micro: m, cycles: fwd[s], done: func() {
			if s+1 < numStages {
				send(s, s+1, cfg.BoundaryBytes[s], func() { fwdStart(pass, s+1, m) })
				return
			}
			// Last stage: loss gradient available immediately.
			bwdStart(pass, s, m)
		}})
	}
	bwdStart = func(pass, s, m int) {
		stages[s].enqueue(pipeJob{micro: m, backward: true, cycles: bwd[s], done: func() {
			if s > 0 {
				send(s, s-1, cfg.BoundaryBytes[s-1], func() { bwdStart(pass, s-1, m) })
				return
			}
			bwdDone++
			if bwdDone == M {
				bwdDone = 0
				if pass+1 < passes {
					runPass(pass + 1)
					return
				}
				finished = true
				endAt = inst.Eng.Now()
			}
		}})
	}
	runPass = func(pass int) {
		for m := 0; m < M; m++ {
			fwdStart(pass, 0, m)
		}
	}
	runPass(0)
	inst.Eng.Run()
	if err := inst.Eng.Err(); err != nil {
		return PipelineResult{}, err
	}
	if !finished {
		return PipelineResult{}, fmt.Errorf("workload: pipeline did not complete")
	}

	res := PipelineResult{TotalCycles: endAt}
	var totalCompute uint64
	for s, st := range stages {
		totalCompute += st.compute
		res.Stages = append(res.Stages, PipelineStageStats{
			Node:          st.node,
			Layers:        bounds[s+1] - bounds[s],
			ComputeCycles: st.compute,
			Utilization:   float64(st.compute) / float64(endAt),
		})
	}
	res.BubbleRatio = 1 - float64(totalCompute)/(float64(numStages)*float64(endAt))
	return res, nil
}

// Pipeline1F1B generates a static, non-interleaved 1F1B pipeline-
// parallel schedule (PipeDream-Flush) as an execution graph: layers are
// partitioned into stages (cfg.Boundaries), each stage runs on one NPU
// (cfg.StageNodes, the graph replica lanes), the minibatch splits into
// cfg.Microbatches, and activation/gradient tensors cross stage
// boundaries as SEND/RECV pairs. Stage s runs min(S-1-s, M) warm-up
// forwards, then alternates one-forward-one-backward, then drains —
// encoded entirely as dependency edges, so the schedule is a pure DAG
// replay. Collective fields of the definition are ignored (single
// replica per stage), as in RunPipeline.
func Pipeline1F1B(def Definition, cfg PipelineConfig, passes int) (*graph.Graph, error) {
	if err := checkPipeline(def, cfg, passes); err != nil {
		return nil, err
	}
	S := len(cfg.Boundaries) + 1
	M := cfg.Microbatches
	_, fwd, bwd := stageCompute(def, cfg)

	g := &graph.Graph{
		Version: graph.FormatVersion,
		Name:    fmt.Sprintf("%s 1f1b %d stages x %d microbatches", def.Name, S, M),
		Passes:  passes,
	}
	fid := func(p, s, m int) string { return fmt.Sprintf("p%d/s%d/f%d", p, s, m) }
	bid := func(p, s, m int) string { return fmt.Sprintf("p%d/s%d/b%d", p, s, m) }
	stage := func(s int) string { return fmt.Sprintf("stage%d", s) }

	// lastJob chains one pass's schedule onto the next per stage.
	lastJob := make([]string, S)
	for p := 0; p < passes; p++ {
		// SEND/RECV pairs for every boundary crossing of this pass.
		for s := 0; s < S-1; s++ {
			for m := 0; m < M; m++ {
				sendAct := fmt.Sprintf("p%d/s%d>s%d/act%d", p, s, s+1, m)
				recvAct := fmt.Sprintf("p%d/s%d<s%d/act%d", p, s+1, s, m)
				g.Nodes = append(g.Nodes,
					graph.Node{ID: sendAct, Kind: graph.KindSend, Peer: recvAct,
						Src: int(cfg.StageNodes[s]), Dst: int(cfg.StageNodes[s+1]),
						Bytes: cfg.BoundaryBytes[s], Deps: []string{fid(p, s, m)},
						Layer: stage(s), Pass: "fwd", Replica: s},
					graph.Node{ID: recvAct, Kind: graph.KindRecv, Peer: sendAct,
						Layer: stage(s + 1), Pass: "fwd", Replica: s + 1},
					graph.Node{ID: fmt.Sprintf("p%d/s%d>s%d/grad%d", p, s+1, s, m), Kind: graph.KindSend,
						Peer: fmt.Sprintf("p%d/s%d<s%d/grad%d", p, s, s+1, m),
						Src:  int(cfg.StageNodes[s+1]), Dst: int(cfg.StageNodes[s]),
						Bytes: cfg.BoundaryBytes[s], Deps: []string{bid(p, s+1, m)},
						Layer: stage(s + 1), Pass: "ig", Replica: s + 1},
					graph.Node{ID: fmt.Sprintf("p%d/s%d<s%d/grad%d", p, s, s+1, m), Kind: graph.KindRecv,
						Peer:  fmt.Sprintf("p%d/s%d>s%d/grad%d", p, s+1, s, m),
						Layer: stage(s), Pass: "ig", Replica: s},
				)
			}
		}
		// Per-stage static 1F1B job order (from the shared schedule
		// emitter), serialized by chain edges.
		schedule, err := graph.Schedule1F1B(S, M, 1)
		if err != nil {
			return nil, err
		}
		for s := 0; s < S; s++ {
			prev := lastJob[s]
			for _, j := range schedule[s] {
				id, cycles, pass, extraDep := bid(p, s, j.Microbatch), bwd[s], "wg", ""
				if j.Forward {
					id, cycles, pass = fid(p, s, j.Microbatch), fwd[s], "fwd"
					if s > 0 {
						extraDep = fmt.Sprintf("p%d/s%d<s%d/act%d", p, s, s-1, j.Microbatch)
					}
				} else if s < S-1 {
					extraDep = fmt.Sprintf("p%d/s%d<s%d/grad%d", p, s, s+1, j.Microbatch)
				}
				var deps []string
				if prev != "" {
					deps = append(deps, prev)
				}
				if extraDep != "" {
					deps = append(deps, extraDep)
				}
				g.Nodes = append(g.Nodes, graph.Node{
					ID: id, Kind: graph.KindComp, Cycles: cycles,
					Layer: stage(s), Pass: pass, Replica: s, Deps: deps,
				})
				prev = id
			}
			lastJob[s] = prev
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: generated 1F1B DAG is invalid (generator bug): %w", err)
	}
	return g, nil
}
