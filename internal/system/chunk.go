package system

import (
	"fmt"

	"astrasim/internal/collectives"
	"astrasim/internal/eventq"
	"astrasim/internal/noc"
	"astrasim/internal/topology"
	"astrasim/internal/trace"
)

// chunk is the scheduling unit: one 1/preferred-set-splits slice of a
// collective set. A chunk walks the compiled phase list one phase at a
// time: it queues in the phase's logical scheduling queue (LSQ), activates
// when the LSQ grants it a slot, runs the phase's ring/direct steps on
// every node, and is rescheduled into the next phase's LSQ when all nodes
// finish (paper §IV-B, Fig. 7).
type chunk struct {
	sys   *System
	coll  *Handle
	idx   int
	bytes int64

	// phase is the current phase index (len(phases) when complete).
	phase int
	// enqueuedAt is when the chunk entered the queue it waits in: the
	// ready queue until the dispatcher issues it, then each phase's LSQ.
	enqueuedAt eventq.Time
	// activatedAt is when the LSQ granted the slot and nodes started.
	activatedAt eventq.Time
	// q and lane are the current phase's LSQ and lane, resolved when the
	// chunk enters the phase.
	q    *lsq
	lane *lane
	// planStep and planBytes memoize the current phase's message size at
	// one step: every node of the chunk sends the same bytes at a given
	// step, so StepBytes runs once per step, not once per node. planStep
	// is -1 when nothing is memoized.
	planBytes int64
	planStep  int32
	// nodesDone counts nodes that finished the current phase. It and
	// planStep are 32 bits wide so they share a word, which keeps a
	// chunk in the allocator's 112-byte size class: a training run
	// allocates thousands of chunks.
	nodesDone int32

	nodes []chunkNodeState
}

// chunkNodeState tracks one NPU's step progress within the active phase.
type chunkNodeState struct {
	// step is the next receive step expected.
	step int
	// recvd counts messages received for the current step (direct
	// phases expect Size-1 per step; ring phases expect 1).
	recvd int
	// done marks the node finished with the current phase.
	done bool
	// early buffers messages for steps this node has not reached yet (a
	// faster peer can run ahead within the phase). Allocated lazily on
	// the first early arrival — most node-phases never need it.
	early map[int]int
}

func newChunk(s *System, h *Handle, idx int, bytes int64) *chunk {
	return &chunk{
		sys:   s,
		coll:  h,
		idx:   idx,
		bytes: bytes,
		nodes: make([]chunkNodeState, s.Topo.NumNPUs()),
	}
}

// start is called by the dispatcher when the chunk leaves the ready
// queue: it enters the first phase's LSQ.
func (c *chunk) start() {
	c.phase = -1
	c.nextPhase()
}

// nextPhase reschedules the chunk into the following phase's LSQ, or
// completes it.
func (c *chunk) nextPhase() {
	c.phase++
	if c.phase == len(c.coll.phases) {
		c.sys.chunkComplete(c)
		return
	}
	ph := c.setPhase(c.phase)
	c.enqueuedAt = c.sys.Eng.Now()
	// The channel is the chunk's lane within the dimension: one
	// unidirectional ring or one global switch.
	di := c.sys.dimIndex(ph.Dim)
	channel := c.idx % c.sys.dims[di].Channels
	c.lane = c.sys.laneFor(di, channel, ph.Direct || ph.Halving)
	c.q = c.sys.lsqFor(ph.Dim, channel, c.phase)
	c.q.enqueue(c)
}

// setPhase enters phase p, with no step plan memoized, and returns it.
func (c *chunk) setPhase(p int) *collectives.Phase {
	c.phase, c.planStep = p, -1
	return c.ph()
}

// ph returns the current phase by pointer: the per-message path reads a
// few of its fields, and copying the whole Phase cost more than that.
func (c *chunk) ph() *collectives.Phase { return &c.coll.phases[c.phase] }

// activate is called by the LSQ when the chunk gets a slot: every node
// begins the phase's step schedule. The LSQ wait is the paper's
// "Queue P1..P4" delay.
func (c *chunk) activate() {
	c.activatedAt = c.sys.Eng.Now()
	p := c.phase
	c.coll.queueSum[p+1] += c.activatedAt - c.enqueuedAt
	c.coll.queueN[p+1]++
	c.nodesDone = 0
	for n := range c.nodes {
		c.nodes[n] = chunkNodeState{}
	}
	// Snapshot the node list: sends below may complete synchronously.
	for n := range c.nodes {
		c.sendStep(topology.Node(n), 0)
	}
}

// neededPerStep is how many messages a node must receive per step
// (halving phases, like rings, expect exactly one partner message).
func neededPerStep(ph *collectives.Phase) int {
	if ph.Direct {
		return ph.Size - 1
	}
	return 1
}

// sendStep transmits node n's messages for step s of the current phase.
func (c *chunk) sendStep(n topology.Node, s int) {
	ph, p := c.ph(), c.phase
	if int32(s) != c.planStep {
		c.planStep, c.planBytes = int32(s), ph.StepBytes(s, c.bytes)
	}
	size := c.planBytes
	l, topo := c.lane, c.sys.Topo
	switch {
	case ph.Halving:
		// The XOR pairing is over positions in the dimension group, which
		// every member enumerates in the same order.
		i := ph.HalvingPartnerIndex(l.pos[n], s)
		c.sendMsg(n, l.group[n][i], l.directPath(topo, n, i), p, s, size)
	case ph.Direct:
		for i, peer := range l.group[n] {
			if i == l.pos[n] {
				continue
			}
			c.sendMsg(n, peer, l.directPath(topo, n, i), p, s, size)
		}
	default:
		c.sendMsg(n, l.next[n], l.path[n], p, s, size)
	}
}

// sendMsg injects one message and wires its delivery back into the chunk
// state machine (after the destination NMU's endpoint delay, plus the
// transport-layer processing for messages that crossed the scale-out
// fabric). The continuation rides on the message itself — Ctx carries
// the chunk, CtxA/CtxB the phase and step — dispatched through shared
// top-level callbacks, so the steady-state send path allocates nothing.
func (c *chunk) sendMsg(src, dst topology.Node, path []topology.LinkID, p, s int, size int64) {
	msg := c.sys.allocMsg()
	msg.Src, msg.Dst, msg.Bytes, msg.Path = src, dst, size, path
	msg.Ctx, msg.CtxA, msg.CtxB = c, int32(p), int32(s)
	msg.OnDelivered = chunkMsgDelivered
	c.sys.sendReliable(src, msg, c.coll)
}

// chunkMsgDelivered is the shared delivery callback for every collective
// message: release the source's injection slot and enter the destination
// NMU's endpoint pipeline.
func chunkMsgDelivered(m *noc.Message) {
	c := m.Ctx.(*chunk)
	c.sys.injectDone(m.Src)
	c.sys.endpointReceiveMsg(c, m)
}

// chunkEndpointDone is the eventq.CallFunc that fires when the
// destination endpoint finishes processing message a of the chunk in its
// Ctx: the chunk advances, and the message object returns to the free
// list (on fault-free runs — an armed retry protocol still references it).
func chunkEndpointDone(a any) {
	m := a.(*noc.Message)
	c := m.Ctx.(*chunk)
	dst, p, step := m.Dst, int(m.CtxA), int(m.CtxB)
	if s := c.sys; s.retry == nil {
		s.freeMsg(m)
	}
	c.onReceive(dst, p, step)
}

// onReceive processes one delivered message at node n for step s of phase
// p, buffering it if n has not reached that step yet.
func (c *chunk) onReceive(n topology.Node, p, s int) {
	if p != c.phase {
		panic(fmt.Sprintf("system: chunk %d/%d node %d received phase %d message during phase %d",
			c.coll.ID, c.idx, n, p, c.phase))
	}
	st := &c.nodes[n]
	if s != st.step {
		if s < st.step {
			panic(fmt.Sprintf("system: chunk %d/%d node %d received stale step %d at step %d",
				c.coll.ID, c.idx, n, s, st.step))
		}
		if st.early == nil {
			st.early = make(map[int]int)
		}
		st.early[s]++
		return
	}
	st.recvd++
	if c.advance(n) {
		c.drainEarly(n)
	}
}

// drainEarly consumes buffered messages matching the node's current step.
func (c *chunk) drainEarly(n topology.Node) {
	st := &c.nodes[n]
	for !st.done {
		cnt := st.early[st.step]
		if cnt == 0 {
			return
		}
		need := neededPerStep(c.ph()) - st.recvd
		take := cnt
		if take > need {
			take = need
		}
		st.recvd += take
		if take == cnt {
			delete(st.early, st.step)
		} else {
			st.early[st.step] = cnt - take
		}
		if !c.advance(n) {
			return
		}
	}
}

// advance moves the node forward when its current step is satisfied:
// send the next step, or mark the node done with the phase. Reports
// whether progress was made.
func (c *chunk) advance(n topology.Node) bool {
	st := &c.nodes[n]
	ph := c.ph()
	if st.recvd < neededPerStep(ph) {
		return false
	}
	st.recvd = 0
	if st.step == ph.NumSteps()-1 {
		st.done = true
		c.nodeDone()
		return true
	}
	st.step++
	c.sendStep(n, st.step)
	return true
}

// nodeDone accounts one node's phase completion; when all nodes are done
// the chunk releases its LSQ slot and moves on.
func (c *chunk) nodeDone() {
	c.nodesDone++
	if int(c.nodesDone) < len(c.nodes) {
		return
	}
	p := c.phase
	now := c.sys.Eng.Now()
	c.coll.netSum[p+1] += now - c.activatedAt
	c.coll.netN[p+1]++
	if c.sys.Tracer.Enabled() {
		if wait := c.activatedAt - c.enqueuedAt; wait > 0 {
			c.sys.Tracer.Span(trace.PhaseSpanName(p, "queue"), "queue",
				c.coll.ID, c.idx, c.enqueuedAt, wait, nil)
		}
		c.sys.Tracer.Span(trace.PhaseSpanName(p, c.ph().String()), "phase",
			c.coll.ID, c.idx, c.activatedAt, now-c.activatedAt, nil)
	}
	if p == 0 {
		c.sys.firstPhaseCleared()
	}
	c.q.release(c)
	c.nextPhase()
}
