package graph

import (
	"fmt"
	"strings"

	"astrasim/internal/collectives"
	"astrasim/internal/compute"
	"astrasim/internal/eventq"
	"astrasim/internal/system"
	"astrasim/internal/topology"
)

// Options configures an Engine.
type Options struct {
	// Compute resolves COMP gemm shapes and MEM stalls (nil: the default
	// paper-calibrated model).
	Compute *compute.Model
}

// nodeState is one node's runtime bookkeeping.
type nodeState struct {
	started   bool
	completed bool
	// startAt is when the node was issued/armed/started — the baseline
	// below which a dependent's stall on this node is never charged.
	startAt eventq.Time
	// effFinish is when a dependent may resume: completion time, plus
	// the local update delay for a COMM.
	effFinish eventq.Time
	cycles    uint64         // resolved COMP/MEM duration
	handle    *system.Handle // in-flight collective (COMM)
	// waiters are dependency walks suspended until this node completes,
	// notified in registration order.
	waiters []func()
	// RECV rendezvous state.
	armed       bool
	delivered   bool
	deliveredAt eventq.Time
}

// Engine replays a validated Graph over a system instance. It is the
// simulator's one workload executor: layer-wise definitions, generated
// pipeline schedules, compiled model plans and trace files all reach the
// system layer through it.
//
// Scheduling is dependency-driven. Every node starts at cycle 0 by
// walking its dep list in declared order, in simulated time:
//
//   - a dep that is usable continues the walk in the same event;
//   - an unfinished dep suspends the walk until it completes. A COMP,
//     MEM or SEND dep resumes the walk inside its completion event; a
//     COMM or RECV dep resumes it by a scheduled event at the dep's ready
//     time (a collective's completion plus its local update time);
//   - a finished COMM or RECV whose ready time is still ahead also
//     resumes the walk by a scheduled event at that time.
//
// Waiting on a COMM or RECV charges the stall, from the later of the
// suspension and the dep's start, to the dep's stats row as exposed
// communication. When the list is exhausted the node starts; COMP and MEM
// nodes on one replica lane run one at a time, and zero-cycle work
// completes in the event that started it. Suspended walks resume in
// registration order, so a run's event order, and with it every cycle
// count, is a function of the graph alone.
type Engine struct {
	inst  *system.Instance
	g     *Graph
	model compute.Model

	idx     map[string]int
	nodes   []nodeState
	stats   []LayerStats
	statIdx map[string]int
	statOf  []int // node -> stats row
	lanes   map[int]eventq.Time

	remaining int
	endAt     eventq.Time
}

// remoteMemory builds the disaggregated-tier model from the system
// configuration (the zero value when no tier is configured).
func (e *Engine) remoteMemory() compute.RemoteMemory {
	return compute.RemoteMemory{
		Bandwidth: e.inst.Sys.Cfg.RemoteMemBandwidth,
		Latency:   e.inst.Sys.Cfg.RemoteMemLatency,
	}
}

// NewEngine validates g against the instance's topology, resolves COMP
// gemm shapes and MEM stalls through the compute model, and prepares the
// dependency scheduler.
func NewEngine(inst *system.Instance, g *Graph, opts Options) (*Engine, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := g.CheckEndpoints(inst.Topo.NumNPUs()); err != nil {
		return nil, err
	}
	model := compute.Default()
	if opts.Compute != nil {
		model = *opts.Compute
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		inst: inst, g: g, model: model,
		idx:     make(map[string]int, len(g.Nodes)),
		nodes:   make([]nodeState, len(g.Nodes)),
		statIdx: make(map[string]int),
		statOf:  make([]int, len(g.Nodes)),
		lanes:   make(map[int]eventq.Time),
	}
	for i, n := range g.Nodes {
		e.idx[n.ID] = i
	}
	for i, n := range g.Nodes {
		switch n.Kind {
		case KindComp:
			e.nodes[i].cycles = n.Cycles
			if n.GEMM != nil {
				e.nodes[i].cycles = e.model.GEMMCycles(compute.GEMM{M: n.GEMM.M, K: n.GEMM.K, N: n.GEMM.N})
			}
		case KindMem:
			p, err := compute.ParsePlacement(n.Placement)
			if err != nil {
				return nil, fmt.Errorf("graph %s: node %s: %w", g.Name, n.ID, err)
			}
			e.nodes[i].cycles = e.model.MemCyclesAt(n.Bytes, e.remoteMemory(), p)
		case KindComm:
			// Pre-compile the collective so scope/topology mismatches
			// surface here instead of mid-simulation.
			op, _ := collectives.ParseOp(n.Op)
			dims, err := topology.ParseScope(n.Scope)
			if err != nil {
				return nil, fmt.Errorf("graph %s: node %s: %w", g.Name, n.ID, err)
			}
			if _, err := collectives.CompileScoped(op, inst.Topo, inst.Sys.Cfg.Algorithm, dims); err != nil {
				return nil, fmt.Errorf("graph %s: node %s: %w", g.Name, n.ID, err)
			}
		}
		// Stats rows in first-appearance order (node ID when unnamed).
		layer := n.Layer
		if layer == "" {
			layer = n.ID
		}
		row, ok := e.statIdx[layer]
		if !ok {
			row = len(e.stats)
			e.statIdx[layer] = row
			e.stats = append(e.stats, LayerStats{Name: layer})
		}
		e.statOf[i] = row
	}
	e.remaining = len(g.Nodes)
	inst.Sys.Tracer.NameProcess(0, "graph ("+g.Name+")")
	if tr := inst.Sys.Tracer; tr.Enabled() {
		for _, n := range g.Nodes {
			tr.NameThread(0, n.Replica, fmt.Sprintf("replica %d", n.Replica))
		}
	}
	return e, nil
}

// Run replays the graph to completion and folds per-node accounting into
// per-layer stats rows.
func (e *Engine) Run() (Result, error) {
	// Every node's dependency walk begins at cycle 0 in declaration
	// order: source nodes start before the event loop runs, the rest
	// suspend on their first unfinished dependency.
	for i := range e.g.Nodes {
		e.walk(i, 0)
	}
	e.inst.Eng.Run()
	if err := e.inst.Eng.Err(); err != nil {
		return Result{}, err
	}
	if e.remaining > 0 {
		return Result{}, fmt.Errorf("graph %s: %d of %d nodes never ran (stuck: %s); %d events fired",
			e.g.Name, e.remaining, len(e.g.Nodes), e.stuckNodes(), e.inst.Eng.Fired())
	}
	return Result{TotalCycles: e.endAt, Passes: e.g.Passes, Layers: e.stats}, nil
}

// stuckNodes lists (a few of) the nodes that never completed.
func (e *Engine) stuckNodes() string {
	var ids []string
	for i, n := range e.g.Nodes {
		if !e.nodes[i].completed {
			ids = append(ids, n.ID)
			if len(ids) == 8 {
				ids = append(ids, "...")
				break
			}
		}
	}
	return strings.Join(ids, ", ")
}

// commKind reports whether node j resumes dependents at a deadline
// beyond its completion event (collective ready time, message delivery)
// — the kinds whose stalls count as exposed communication.
func (e *Engine) commKind(j int) bool {
	k := e.g.Nodes[j].Kind
	return k == KindComm || k == KindRecv
}

// walk processes node i's dependencies from index d onward at the
// current cycle. Completed communication deps whose ready time lies ahead
// charge the stall and hop there via a scheduled event; unfinished deps
// suspend the walk as a waiter on the dep. When the list is exhausted the
// node starts.
func (e *Engine) walk(i, d int) {
	if e.inst.Eng.Err() != nil {
		return
	}
	n := &e.g.Nodes[i]
	for ; d < len(n.Deps); d++ {
		j := e.idx[n.Deps[d]]
		ds := &e.nodes[j]
		now := e.inst.Eng.Now()
		if !ds.completed {
			waitStart := now
			next := d + 1
			ds.waiters = append(ds.waiters, func() {
				// Runs inside j's completion. Non-comm deps resume the
				// walk synchronously; comm deps charge the stall since
				// the later of suspension and issue, then resume at the
				// ready time, always by a scheduled event, even when
				// that time is now.
				if !e.commKind(j) {
					e.walk(i, next)
					return
				}
				base := waitStart
				if ds.startAt > base {
					base = ds.startAt
				}
				if ds.effFinish > base {
					st := &e.stats[e.statOf[j]]
					st.ExposedCycles += uint64(ds.effFinish - base)
					e.traceSpan("exposed "+st.Name, "exposed", n.Replica, base, ds.effFinish-base)
				}
				e.inst.Eng.At(ds.effFinish, func() { e.walk(i, next) })
			})
			return
		}
		if e.commKind(j) && ds.effFinish > now {
			// Completed earlier but not yet usable (local update still
			// running): stall here until the ready time.
			st := &e.stats[e.statOf[j]]
			st.ExposedCycles += uint64(ds.effFinish - now)
			e.traceSpan("exposed "+st.Name, "exposed", n.Replica, now, ds.effFinish-now)
			next := d + 1
			e.inst.Eng.At(ds.effFinish, func() { e.walk(i, next) })
			return
		}
		// Usable already: continue to the next dep synchronously.
	}
	e.startNode(i)
}

// startNode begins node i's work once its dependencies are satisfied,
// serializing COMP/MEM nodes that share a replica lane.
func (e *Engine) startNode(i int) {
	n := &e.g.Nodes[i]
	ns := &e.nodes[i]
	now := e.inst.Eng.Now()
	if n.Kind == KindComp || n.Kind == KindMem {
		if lane := e.lanes[n.Replica]; lane > now {
			// The lane is busy; reserve the next slot and start then.
			e.lanes[n.Replica] = lane + eventq.Time(ns.cycles)
			e.inst.Eng.At(lane, func() { e.execute(i) })
			return
		}
		e.lanes[n.Replica] = now + eventq.Time(ns.cycles)
	}
	e.execute(i)
}

// execute performs node i's operation at the current cycle.
func (e *Engine) execute(i int) {
	if e.inst.Eng.Err() != nil {
		return
	}
	n := &e.g.Nodes[i]
	ns := &e.nodes[i]
	now := e.inst.Eng.Now()
	ns.started = true
	ns.startAt = now
	st := &e.stats[e.statOf[i]]
	switch n.Kind {
	case KindComp, KindMem:
		cycles := ns.cycles
		if cycles == 0 {
			// Zero-cost work completes synchronously.
			e.complete(i, now)
			return
		}
		cat := "compute"
		if n.Kind == KindMem {
			cat = "mem"
		}
		e.inst.Eng.Schedule(eventq.Time(cycles), func() {
			st.ComputeCycles += cycles
			e.traceSpan(e.spanName(n), cat, n.Replica, now, eventq.Time(cycles))
			e.complete(i, e.inst.Eng.Now())
		})
	case KindComm:
		op, _ := collectives.ParseOp(n.Op)
		dims, _ := topology.ParseScope(n.Scope)
		tag := n.Tag
		if tag == "" {
			tag = n.ID
		}
		raw, handles := commBuckets(st, n.Pass)
		// Placement was validated by NewEngine; remote tensors pay the
		// pool stall on top of the local update.
		p, _ := compute.ParsePlacement(n.Placement)
		update := updateCycles(n.UpdatePerKB, n.Bytes) + e.remoteMemory().StallCycles(n.Bytes, p)
		h, err := e.inst.Sys.Issue(system.CollectiveSpec{
			Op: op, Bytes: n.Bytes, Tag: tag, Priority: n.Priority, Scope: dims,
		}, func(h *system.Handle) {
			*raw += uint64(h.Duration())
			e.complete(i, e.inst.Eng.Now()+eventq.Time(update))
		})
		if err != nil {
			e.inst.Eng.Abort(fmt.Errorf("graph %s: node %s: %w", e.g.Name, n.ID, err))
			return
		}
		ns.handle = h
		*handles = append(*handles, h)
	case KindSend:
		peer := e.idx[n.Peer]
		err := e.inst.Sys.SendPointToPoint(topology.Node(n.Src), topology.Node(n.Dst), n.Bytes, func() { e.deliver(peer) })
		if err != nil {
			e.inst.Eng.Abort(fmt.Errorf("graph %s: node %s: %w", e.g.Name, n.ID, err))
			return
		}
		// An asynchronous send occupies no local time: it completes at
		// issue, and the paired RECV carries the transfer's latency.
		e.complete(i, now)
	case KindRecv:
		ns.armed = true
		if ns.delivered {
			e.finishRecv(i)
		}
		// Otherwise deliver() completes the node when the payload lands.
	}
}

// deliver is a SEND's delivery callback landing on RECV node i.
func (e *Engine) deliver(i int) {
	ns := &e.nodes[i]
	ns.delivered = true
	ns.deliveredAt = e.inst.Eng.Now()
	if ns.armed && !ns.completed {
		e.finishRecv(i)
	}
}

// finishRecv completes RECV node i at the rendezvous point. The transfer
// time — delivery minus the later of arming and the paired SEND's issue —
// accrues as raw communication, so a RECV armed long before the sender
// even started (common in static pipeline schedules) doesn't inflate the
// raw-comm totals with pure schedule slack.
func (e *Engine) finishRecv(i int) {
	n := &e.g.Nodes[i]
	ns := &e.nodes[i]
	now := e.inst.Eng.Now()
	st := &e.stats[e.statOf[i]]
	raw, _ := commBuckets(st, n.Pass)
	base := ns.startAt
	if ps := e.nodes[e.idx[n.Peer]]; ps.startAt > base {
		base = ps.startAt
	}
	if ns.deliveredAt > base {
		*raw += uint64(ns.deliveredAt - base)
	}
	e.complete(i, now)
}

// commBuckets maps a pass label to the stats row's raw-comm accumulator
// and handle list.
func commBuckets(st *LayerStats, pass string) (*uint64, *[]*system.Handle) {
	switch pass {
	case "ig":
		return &st.IGCommCycles, &st.IGHandles
	case "wg":
		return &st.WGCommCycles, &st.WGHandles
	}
	return &st.FwdCommCycles, &st.FwdHandles
}

// complete marks node i done at the current cycle with the given resume
// deadline for dependents, then notifies suspended walks in registration
// order.
func (e *Engine) complete(i int, effFinish eventq.Time) {
	ns := &e.nodes[i]
	ns.completed = true
	ns.effFinish = effFinish
	e.remaining--
	if e.remaining == 0 {
		e.endAt = e.inst.Eng.Now()
	}
	ws := ns.waiters
	ns.waiters = nil
	for _, w := range ws {
		w()
	}
}

// spanName labels a node's trace span: "<pass> <layer>" when both are
// set, the node ID otherwise.
func (e *Engine) spanName(n *Node) string {
	if n.Layer != "" && n.Pass != "" {
		return n.Pass + " " + n.Layer
	}
	return n.ID
}

// traceSpan records one workload-level span on the node's replica lane.
func (e *Engine) traceSpan(name, cat string, replica int, start, dur eventq.Time) {
	e.inst.Sys.Tracer.Span(name, cat, 0, replica, start, dur, nil)
}

// updateCycles is the local update time of a completed collective (Fig.
// 8's "Local Update Time"): perKB cycles for every started KB of the
// communicated tensor.
func updateCycles(perKB uint64, bytes int64) uint64 {
	if bytes <= 0 {
		return 0
	}
	kb := (bytes + 1023) / 1024
	return perKB * uint64(kb)
}

// Run is the one-call convenience: build an engine over inst and replay
// g with default options.
func Run(inst *system.Instance, g *Graph) (Result, error) {
	e, err := NewEngine(inst, g, Options{})
	if err != nil {
		return Result{}, err
	}
	return e.Run()
}
