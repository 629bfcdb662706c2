package oracle

import (
	"fmt"

	"astrasim/internal/collectives"
	"astrasim/internal/eventq"
	"astrasim/internal/topology"
)

// This file is the exact arithmetic evaluator behind Model.Predict. It
// computes the closed-form recurrence — per-link FIFO serialization with
// sub-cycle carries, per-hop latency, per-node serialized endpoint cost —
// over a worklist ordered by (time, issue order). That is the same total
// order the simulator's event queue imposes, so when two messages contend
// for a shared switch link or endpoint in the same cycle, the oracle
// serializes them in the same order the simulator does and the result is
// cycle-exact, not merely tight. The evaluator deliberately reimplements
// the arithmetic instead of importing the eventq/noc/system packages:
// sharing code would make the differential check vacuous.

// maxWorkItems bounds an evaluation; a well-formed collective on any
// corpus-sized topology is orders of magnitude below it, so hitting the
// bound means the recurrence diverged (a modeling bug).
const maxWorkItems = 100_000_000

// workItem is one pending arithmetic step, keyed exactly like the
// simulator's events: fire time, then issue order.
type workItem struct {
	at  eventq.Time
	seq uint64
	fn  func()
}

// workList is a binary min-heap of work items ordered by (at, seq).
type workList []workItem

func (w workList) less(i, j int) bool {
	if w[i].at != w[j].at {
		return w[i].at < w[j].at
	}
	return w[i].seq < w[j].seq
}

func (w *workList) push(it workItem) {
	*w = append(*w, it)
	h := *w
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (w *workList) pop() workItem {
	h := *w
	n := len(h)
	root := h[0]
	h[0] = h[n-1]
	h[n-1] = workItem{}
	h = h[:n-1]
	n--
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && h.less(right, left) {
			child = right
		}
		if !h.less(child, i) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	*w = h
	return root
}

// olink is the per-link recurrence state: one serializer with a
// fractional-cycle carry and a bounded input buffer.
type olink struct {
	pktSize    int64
	effBW      float64
	latency    eventq.Time
	capPackets int

	serCarry float64
	queue    []opkt
	reserved int
	busy     bool
}

// omsg is one modeled message; opkt one of its packets on one link.
type omsg struct {
	bytes       int64
	path        []topology.LinkID
	packetsLeft int
	onDelivered func()
}

type opkt struct {
	msg     *omsg
	bytes   int64
	pathPos int
}

// onode is one NPU's step progress within the active phase.
type onode struct {
	step  int
	recvd int
	done  bool
	early map[int]int
}

// evaluator runs one single-chunk collective through the closed-form
// recurrence.
type evaluator struct {
	m *Model

	now  eventq.Time
	seq  uint64
	work workList
	err  error

	links   []olink
	epBusy  []eventq.Time
	epCarry []float64

	phases    []Phase
	bytes     int64
	phase     int
	nodes     []onode
	nodesDone int
	phaseEnds []eventq.Time
	completed bool
	doneAt    eventq.Time
}

// predictChunk evaluates one chunk of chunkBytes through every compiled
// phase and returns its exact completion time.
func (m *Model) predictChunk(op collectives.Op, chunkBytes int64) (Prediction, error) {
	phases, err := CompilePhases(op, m.topo, m.sys.Algorithm)
	if err != nil {
		return Prediction{}, err
	}
	pred := Prediction{Phases: phases}
	if len(phases) == 0 {
		// Single-node topology or no-op: completes in zero cycles.
		return pred, nil
	}

	e := &evaluator{
		m:       m,
		links:   make([]olink, len(m.topo.Links())),
		epBusy:  make([]eventq.Time, m.topo.NumNPUs()),
		epCarry: make([]float64, m.topo.NumNPUs()),
		phases:  phases,
		bytes:   chunkBytes,
		nodes:   make([]onode, m.topo.NumNPUs()),
	}
	flitBytes := m.net.FlitWidthBits / 8
	if flitBytes == 0 {
		flitBytes = 1
	}
	for i, spec := range m.topo.Links() {
		bw, latency, pkt := m.classParams(spec.Class)
		capBytes := m.net.VCsPerVNet * m.net.BuffersPerVC * flitBytes
		e.links[i] = olink{
			pktSize:    int64(pkt),
			effBW:      bw,
			latency:    eventq.Time(latency),
			capPackets: max(1, capBytes/pkt),
		}
	}

	e.phase = -1
	e.nextPhase()
	for steps := 0; e.err == nil && len(e.work) > 0; steps++ {
		if steps > maxWorkItems {
			return pred, fmt.Errorf("oracle: recurrence exceeded %d work items without completing", maxWorkItems)
		}
		it := e.work.pop()
		e.now = it.at
		it.fn()
	}
	if e.err != nil {
		return pred, e.err
	}
	if !e.completed {
		return pred, fmt.Errorf("oracle: recurrence drained at t=%d without completing the collective (internal modeling bug)", e.now)
	}
	pred.Cycles = e.doneAt
	pred.PhaseEnds = e.phaseEnds
	return pred, nil
}

// fail aborts the evaluation; remaining work is discarded.
func (e *evaluator) fail(err error) {
	if e.err == nil {
		e.err = err
	}
	e.work = e.work[:0]
}

// schedule enqueues one arithmetic step delay cycles from now, stamping
// it with the next issue-order number.
func (e *evaluator) schedule(delay eventq.Time, fn func()) {
	e.scheduleAt(e.now+delay, fn)
}

func (e *evaluator) scheduleAt(at eventq.Time, fn func()) {
	e.seq++
	e.work.push(workItem{at: at, seq: e.seq, fn: fn})
}

// --- link recurrence -------------------------------------------------

// send packetizes one message onto the first link of its path: packets of
// the smallest packet-size class along the path, capped at
// MaxPacketsPerMessage with the per-packet size scaled up to compensate.
func (e *evaluator) send(msg *omsg) {
	first := &e.links[msg.path[0]]
	pktSize := first.pktSize
	for _, id := range msg.path[1:] {
		pktSize = min(pktSize, e.links[id].pktSize)
	}
	numPkts := (msg.bytes + pktSize - 1) / pktSize
	if maxP := int64(e.m.net.MaxPacketsPerMessage); maxP > 0 && numPkts > maxP {
		numPkts = maxP
		pktSize = (msg.bytes + numPkts - 1) / numPkts
	}
	msg.packetsLeft = int(numPkts)
	remaining := msg.bytes
	for i := int64(0); i < numPkts; i++ {
		b := pktSize
		if b > remaining {
			b = remaining
		}
		remaining -= b
		first.queue = append(first.queue, opkt{msg: msg, bytes: b, pathPos: 0})
		e.kick(first)
	}
}

// serCycles is the per-packet serialization cost with the sub-cycle carry
// recurrence: a packet stream moves at exactly bandwidth x efficiency.
func serCycles(l *olink, bytes int64) eventq.Time {
	exact := float64(bytes)/l.effBW + l.serCarry
	c := eventq.Time(exact)
	l.serCarry = exact - float64(c)
	if c == 0 {
		c = 1
		l.serCarry = 0
	}
	return c
}

// kick starts serializing the head packet if the link is idle.
func (e *evaluator) kick(l *olink) {
	if l.busy || len(l.queue) == 0 {
		return
	}
	p := l.queue[0]
	l.busy = true
	e.schedule(serCycles(l, p.bytes), func() { e.forward(l, p) })
}

// hopDelay is the post-serialization wire latency plus one router
// pipeline.
func (e *evaluator) hopDelay(l *olink) eventq.Time {
	return l.latency + eventq.Time(e.m.net.RouterLatency)
}

// forward moves a serialized packet to its next link or to the
// destination endpoint, then retires it from this link's serializer. A
// full downstream buffer means backpressure — head-of-line blocking the
// closed form does not model — so the oracle refuses instead of guessing.
func (e *evaluator) forward(l *olink, p opkt) {
	if p.pathPos+1 < len(p.msg.path) {
		next := &e.links[p.msg.path[p.pathPos+1]]
		if len(next.queue)+next.reserved >= next.capPackets {
			e.fail(fmt.Errorf("oracle: link buffer backpressure at t=%d; the run leaves the uncongested regime the closed form models", e.now))
			return
		}
		next.reserved++
		adv := opkt{msg: p.msg, bytes: p.bytes, pathPos: p.pathPos + 1}
		e.schedule(e.hopDelay(l), func() { e.arrive(next, adv) })
	} else {
		msg := p.msg
		e.schedule(e.hopDelay(l), func() { e.delivered(msg) })
	}
	l.queue = l.queue[1:]
	l.busy = false
	e.kick(l)
}

// arrive lands a packet on its next link after the wire delay.
func (e *evaluator) arrive(l *olink, p opkt) {
	l.reserved--
	l.queue = append(l.queue, p)
	e.kick(l)
}

// delivered retires one packet at the destination; the last packet of a
// message hands it to the endpoint recurrence.
func (e *evaluator) delivered(msg *omsg) {
	msg.packetsLeft--
	if msg.packetsLeft == 0 {
		msg.onDelivered()
	}
}

// endpointReceive is the per-node NMU recurrence: serialized service of
// (endpointDelay + extra) x stragglerFactor per message, with the same
// fractional-cycle carry the system layer keeps.
func (e *evaluator) endpointReceive(node topology.Node, extra eventq.Time, fn func()) {
	start := e.now
	if e.epBusy[node] > start {
		start = e.epBusy[node]
	}
	exact := float64(eventq.Time(e.m.sys.EndpointDelay)+extra)*e.m.epScale[node] + e.epCarry[node]
	cost := eventq.Time(exact)
	e.epCarry[node] = exact - float64(cost)
	done := start + cost
	e.epBusy[node] = done
	e.scheduleAt(done, fn)
}

// --- phase recurrence ------------------------------------------------

// nextPhase advances the chunk into the next synchronized phase, or
// completes it. Phases start synchronized: every node issues step 0 the
// moment the previous phase's last node finishes.
func (e *evaluator) nextPhase() {
	e.phase++
	if e.phase == len(e.phases) {
		e.doneAt = e.now
		e.completed = true
		return
	}
	e.nodesDone = 0
	for n := range e.nodes {
		e.nodes[n] = onode{early: make(map[int]int)}
	}
	for n := range e.nodes {
		e.sendStep(topology.Node(n), e.phase, 0)
	}
}

// sendStep issues node n's messages for step s of phase p: one ring
// successor message, Size-1 direct peer messages in group order, or one
// XOR-partner message on halving phases.
func (e *evaluator) sendStep(n topology.Node, p, s int) {
	ph := e.phases[p]
	size := ph.StepBytes(s, e.bytes)
	switch {
	case ph.Halving:
		group := e.m.topo.Group(ph.Dim, n)
		for i, m := range group {
			if m == n {
				e.sendMsg(n, group[ph.halvingPartnerIndex(i, s)], p, s, size, ph)
				return
			}
		}
		e.fail(fmt.Errorf("oracle: node %d missing from its own %v group (internal modeling bug)", n, ph.Dim))
	case ph.Direct:
		for _, peer := range e.m.topo.Group(ph.Dim, n) {
			if peer == n {
				continue
			}
			e.sendMsg(n, peer, p, s, size, ph)
		}
	default:
		ring := e.m.topo.RingOf(ph.Dim, n, 0)
		e.sendMsg(n, ring.Next(n), p, s, size, ph)
	}
}

// sendMsg routes one message over the phase dimension's channel-0 links
// and wires its delivery through the endpoint recurrence back into the
// step state machine. Scale-out messages carry the transport-layer
// processing delay on top of the endpoint delay.
func (e *evaluator) sendMsg(src, dst topology.Node, p, s int, size int64, ph Phase) {
	path := e.m.topo.PathLinks(ph.Dim, 0, src, dst)
	var extra eventq.Time
	if ph.Dim == topology.DimScaleOut {
		extra = eventq.Time(e.m.sys.TransportDelay)
	}
	msg := &omsg{bytes: size, path: path}
	msg.onDelivered = func() {
		e.endpointReceive(dst, extra, func() { e.onReceive(dst, p, s) })
	}
	e.send(msg)
}

// onReceive processes one delivered message at node n for step s,
// buffering it if n has not reached that step yet (a faster peer can run
// ahead within the phase).
func (e *evaluator) onReceive(n topology.Node, p, s int) {
	if p != e.phase {
		e.fail(fmt.Errorf("oracle: node %d received a phase-%d message during phase %d (internal modeling bug)", n, p, e.phase))
		return
	}
	st := &e.nodes[n]
	if s != st.step {
		if s < st.step {
			e.fail(fmt.Errorf("oracle: node %d received stale step %d at step %d (internal modeling bug)", n, s, st.step))
			return
		}
		st.early[s]++
		return
	}
	st.recvd++
	if e.advance(n) {
		e.drainEarly(n)
	}
}

// drainEarly consumes buffered messages matching the node's current step.
func (e *evaluator) drainEarly(n topology.Node) {
	st := &e.nodes[n]
	for !st.done {
		cnt := st.early[st.step]
		if cnt == 0 {
			return
		}
		need := e.phases[e.phase].messagesPerStep() - st.recvd
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
		if !e.advance(n) {
			return
		}
	}
}

// advance moves node n forward when its current step is satisfied: issue
// the next step, or mark the node done with the phase. Reports whether
// progress was made.
func (e *evaluator) advance(n topology.Node) bool {
	st := &e.nodes[n]
	ph := e.phases[e.phase]
	if st.recvd < ph.messagesPerStep() {
		return false
	}
	st.recvd = 0
	if st.step == ph.NumSteps()-1 {
		st.done = true
		e.nodeDone()
		return true
	}
	st.step++
	e.sendStep(n, e.phase, st.step)
	return true
}

// nodeDone accounts one node's phase completion; the last node closes the
// phase and starts the next one synchronously.
func (e *evaluator) nodeDone() {
	e.nodesDone++
	if e.nodesDone < len(e.nodes) {
		return
	}
	e.phaseEnds = append(e.phaseEnds, e.now)
	e.nextPhase()
}
