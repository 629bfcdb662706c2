// Package system implements the System layer of ASTRA-SIM (paper §IV-B):
// the interface between the workload layer above and the network layer
// below. It owns the topology-aware collective execution, the chunking of
// collective "sets" for pipelining (Table II), the scheduler with its
// ready queue and logical scheduling queues (LSQs), and the dispatcher
// that throttles how many chunks are in flight in the first phase.
//
// A collective issued by the workload layer is one *set*. The set is split
// into chunks (Table III: preferred-set-splits); each chunk independently
// walks the compiled phase list (one phase per topology dimension),
// assigned per phase to one of the dimension's parallel channels — one
// unidirectional ring, or one global switch — which is exactly the
// paper's "one LSQ per dedicated link group" rule. The dispatcher issues P
// new chunks from the ready queue whenever fewer than T chunks remain in
// their first phase (§V-F: T=8, P=16).
//
// The system layer is also where lost traffic is recovered: with a
// RetryPolicy set (SetRetryPolicy, driven by the internal/faults
// subsystem), every message is sent reliably — a network-layer drop
// schedules a retransmission after the policy's timeout, backing off
// exponentially per attempt, re-entering through the same injection
// throttle as first transmissions. Retransmitted goodput accrues to a
// dedicated ledger (Retransmits, RetransmittedBytes, Handle.Retransmits)
// so the audit layer's byte conservation stays exact under loss. With no
// policy set the reliable path is a nil check.
package system

import (
	"fmt"

	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/fifo"
	"astrasim/internal/noc"
	"astrasim/internal/topology"
	"astrasim/internal/trace"
)

// Handle tracks one issued collective (a set) through its lifetime. The
// workload layer keeps it to observe completion and per-phase breakdowns.
type Handle struct {
	ID    int
	Op    collectives.Op
	Bytes int64
	// Tag is free-form ("layer 3 WG") for reports.
	Tag string
	// Priority orders the ready queue under the Priority policy (lower
	// value = more urgent).
	Priority int
	// OnComplete fires when every chunk has finished every phase on
	// every node.
	OnComplete func(*Handle)

	// CreatedAt is when the workload issued the collective; DoneAt when
	// it completed.
	CreatedAt eventq.Time
	DoneAt    eventq.Time

	phases     []collectives.Phase
	chunks     []*chunk
	chunksDone int
	// done is set by complete, *after* DoneAt is stamped — it is the only
	// completion truth. Deriving Done from chunk counts alone would report
	// a zero-phase (single-node / no-op) collective done at issue time,
	// before its scheduled completion event fires and while DoneAt is
	// still zero (making Duration underflow for any issue at t>0).
	done bool
	// retransmits counts this collective's messages recovered by the
	// fault-injection retry protocol (always 0 on fault-free runs).
	retransmits uint64

	// Breakdown accumulators, indexed by phase (0 = ready queue).
	queueSum []eventq.Time // queueSum[0] is the P0 ready-queue delay
	netSum   []eventq.Time
	queueN   []int
	netN     []int
}

// NumPhases returns the compiled phase count (e.g. 3 for the baseline
// torus all-reduce, 4 for the enhanced algorithm).
func (h *Handle) NumPhases() int { return len(h.phases) }

// Phases returns the compiled phase list.
func (h *Handle) Phases() []collectives.Phase { return h.phases }

// Done reports completion: the completion event fired and DoneAt is set.
func (h *Handle) Done() bool { return h.done }

// NumChunks returns how many chunks the set was split into (0 for a
// zero-phase collective).
func (h *Handle) NumChunks() int { return len(h.chunks) }

// ScheduledTxBytes returns the total bytes the compiled schedule transmits
// across all nodes and phases, chunk by chunk — exactly what the system
// layer hands the network layer over the collective's lifetime. The audit
// layer checks injected traffic against it byte-for-byte.
func (h *Handle) ScheduledTxBytes() int64 {
	var total int64
	for _, c := range h.chunks {
		var perNode int64
		for _, ph := range h.phases {
			perNode += ph.TotalBytesPerNode(c.bytes)
		}
		total += perNode * int64(len(c.nodes))
	}
	return total
}

// ScheduledMessages returns how many messages the compiled schedule
// injects across all nodes, chunks and phases (the audit layer's
// rounding-tolerance unit: each message deviates from the analytic
// fraction by less than one byte).
func (h *Handle) ScheduledMessages() int64 {
	var total int64
	for _, c := range h.chunks {
		var perNode int64
		for _, ph := range h.phases {
			perNode += int64(ph.NumSteps()) * int64(ph.MessagesPerStep())
		}
		total += perNode * int64(len(c.nodes))
	}
	return total
}

// Duration returns end-to-end collective latency.
func (h *Handle) Duration() eventq.Time { return h.DoneAt - h.CreatedAt }

// Retransmits reports how many of the collective's messages were lost to
// fault injection and recovered by the retransmit protocol.
func (h *Handle) Retransmits() uint64 { return h.retransmits }

// AvgQueueDelay returns the average per-chunk queue delay at stage i
// (the paper's "Queue P0..P4"): i=0 is the ready-queue wait before the
// dispatcher issued the chunk; i>=1 is the wait in phase i's logical
// scheduling queue before the chunk got a slot on its ring/switch.
func (h *Handle) AvgQueueDelay(i int) float64 {
	if i >= len(h.queueN) || h.queueN[i] == 0 {
		return 0
	}
	return float64(h.queueSum[i]) / float64(h.queueN[i])
}

// AvgNetworkDelay returns the average per-chunk in-network time of phase
// i, 1-based like the paper's "Network P1..P4": LSQ activation to the
// last node finishing the phase.
func (h *Handle) AvgNetworkDelay(i int) float64 {
	if i >= len(h.netN) || h.netN[i] == 0 {
		return 0
	}
	return float64(h.netSum[i]) / float64(h.netN[i])
}

// AvgPhaseResidence returns the average per-chunk wall-clock time spent
// in phase i (1-based), LSQ queueing included.
func (h *Handle) AvgPhaseResidence(i int) float64 {
	return h.AvgQueueDelay(i) + h.AvgNetworkDelay(i)
}

// System is the system layer instance shared by all NPUs. The simulated
// workload is SPMD: every NPU participates in every collective, so a
// single coordinator object holds the (identical) per-node scheduler state
// and drives per-node progress deterministically through the event queue.
type System struct {
	Eng  *eventq.Engine
	Topo topology.Topology
	// Net is the transport: noc's packet model or its unbounded-buffer
	// fast model, selected by Cfg.Backend. Both are one *noc.Network, and
	// the system layer drives them identically: messages go down through
	// Send and come back through noc.Message.OnDelivered.
	Net *noc.Network
	Cfg config.System
	// Tracer, when non-nil, records one queue span and one execution
	// span per chunk-phase (Chrome trace format; see internal/trace).
	Tracer *trace.Recorder

	nextID int
	// ready is the queue of chunks accepted but not yet issued
	// (LIFO/FIFO per the scheduling policy).
	ready []*chunk
	// inFirstPhase counts issued chunks that have not yet cleared their
	// first phase on every node (the dispatcher's threshold input).
	inFirstPhase int
	// lsqs are the logical scheduling queues, one per (dimension,
	// channel, phase position): each throttles how many chunks run
	// concurrently on its dedicated ring or switch (paper Fig. 7).
	lsqs map[lsqKey]*lsq

	// nmus holds each NPU's endpoint (NMU) state, indexed by node.
	nmus []nmu

	// OnIssue, when non-nil, observes every successfully issued
	// collective handle (the audit layer's registration hook). OnP2P
	// observes every point-to-point send that enters the network.
	// Both cost one nil check on cold paths when disabled.
	OnIssue func(*Handle)
	OnP2P   func(src, dst topology.Node, bytes int64)
	// retry, when non-nil, is the endpoint timeout -> retransmit-with-
	// backoff protocol armed on every injected message; retransmits /
	// retransmittedBytes are its ledger, kept separate from scheduled
	// traffic so the audit layer's byte conservation stays exact under
	// fault-injected packet loss. All nil (and cost-free) outside fault
	// runs.
	retry              *RetryPolicy
	retransmits        uint64
	retransmittedBytes int64
	// injectors throttle per-node message injection under the Normal
	// injection policy (Table III #15): at most one in-flight message
	// per outgoing link; Aggressive injects without limit.
	injectors []injector
	// router serves point-to-point hardware routing (built lazily).
	router *topology.Router
	// p2pSeq spreads consecutive point-to-point sends across parallel
	// physical links.
	p2pSeq int
	// dims caches Topo.Dims(): the topology is immutable, but most
	// implementations build the slice fresh per call, and every chunk
	// consults it once per phase.
	dims []topology.DimInfo
	// lanes holds each collective lane's resolved routing, indexed
	// [dimension index into dims][channel] and built on first use.
	lanes [][]*lane
	// msgFree recycles noc.Message objects on the collective hot path.
	// Messages are returned only after their endpoint completion fires
	// (nothing references them past that point) and never while a retry
	// policy is armed (the retransmit protocol holds the failed attempt).
	msgFree []*noc.Message
}

// nmu is one NPU's endpoint state: endpoint processing is serialized per
// node (one message at a time).
type nmu struct {
	// busy is when the NMU frees up.
	busy eventq.Time
	// scale multiplies the node's endpoint delay (1 = nominal): the
	// straggler-injection hook.
	scale float64
	// carry accumulates the sub-cycle remainder of scaled endpoint costs
	// across messages (like link.serCycles), so a fractional straggler
	// factor loses no time to truncation.
	carry float64
}

// allocMsg returns a zeroed message from the free list (or a fresh one).
func (s *System) allocMsg() *noc.Message {
	if n := len(s.msgFree); n > 0 {
		m := s.msgFree[n-1]
		s.msgFree = s.msgFree[:n-1]
		*m = noc.Message{}
		return m
	}
	return &noc.Message{}
}

// freeMsg recycles a message whose delivery fully completed. Callers must
// not hold references past this point.
func (s *System) freeMsg(m *noc.Message) { s.msgFree = append(s.msgFree, m) }

// injector is one NPU's NMU-side injection throttle. The deferred-send
// queue holds the messages themselves (not closures), so throttled sends
// cost no per-message allocation.
type injector struct {
	capacity int // 0 = unlimited (aggressive)
	inFlight int
	queue    fifo.Queue[*noc.Message]
}

// inject sends msg now if a slot is free, else queues it.
func (s *System) inject(node topology.Node, msg *noc.Message) {
	in := &s.injectors[node]
	if in.capacity == 0 || in.inFlight < in.capacity {
		in.inFlight++
		s.Net.Send(msg)
		return
	}
	in.queue.Push(msg)
}

// injectDone releases node's slot when a message is delivered, launching
// the next queued send.
func (s *System) injectDone(node topology.Node) {
	in := &s.injectors[node]
	if in.queue.Len() > 0 {
		msg := *in.queue.Front()
		in.queue.Pop()
		s.Net.Send(msg)
		return
	}
	in.inFlight--
}

// RetryPolicy configures the recovery protocol for fault-injected packet
// loss: when the network reports a message lost (a packet dropped in
// flight), the sender's retransmission timer expires Timeout cycles
// later — scaled by Backoff for each successive attempt of the same
// message — and a fresh copy re-enters the source node's injection
// throttle. A message still failing after MaxRetries retransmissions is
// unrecoverable: it aborts the run (eventq.Engine.Abort), and the run's
// caller returns the error, so a too-aggressive fault plan fails loudly
// instead of silently never completing.
type RetryPolicy struct {
	// Timeout is the base retransmission timeout (RTO) in cycles.
	Timeout eventq.Time
	// Backoff multiplies the RTO per successive attempt (>= 1).
	Backoff float64
	// MaxRetries bounds retransmissions per message.
	MaxRetries int
}

// rto returns the backoff-scaled timeout before retransmission attempt
// number attempt (the first retransmission is attempt 1).
func (p RetryPolicy) rto(attempt int) eventq.Time {
	t := float64(p.Timeout)
	for i := 1; i < attempt; i++ {
		t *= p.Backoff
	}
	if t < 1 {
		t = 1
	}
	return eventq.Time(t)
}

// SetRetryPolicy arms (or, with nil, disarms) the retransmit protocol for
// every subsequently injected message. Must be set before the traffic it
// should protect.
func (s *System) SetRetryPolicy(p *RetryPolicy) {
	if p != nil {
		if p.Timeout == 0 {
			panic("system: retry timeout must be positive")
		}
		if p.Backoff < 1 {
			panic(fmt.Sprintf("system: retry backoff must be >= 1, got %v", p.Backoff))
		}
		if p.MaxRetries < 0 {
			panic(fmt.Sprintf("system: retry MaxRetries must be >= 0, got %d", p.MaxRetries))
		}
	}
	s.retry = p
}

// Retransmits reports how many messages were retransmitted by the
// recovery protocol over the run.
func (s *System) Retransmits() uint64 { return s.retransmits }

// RetransmittedBytes reports the total bytes of retransmitted messages —
// traffic the network carried beyond what the collective schedules and
// point-to-point sends account for. The audit layer adds this ledger to
// its conservation identity.
func (s *System) RetransmittedBytes() int64 { return s.retransmittedBytes }

// sendReliable injects msg from src through the injection throttle and,
// when a retry policy is armed, wires the retransmit protocol onto it.
// h, when non-nil, accrues the owning collective's retransmit count.
func (s *System) sendReliable(src topology.Node, msg *noc.Message, h *Handle) {
	if s.retry != nil {
		s.armRetry(src, msg, h, 1)
	}
	s.inject(src, msg)
}

// armRetry attaches loss recovery to one attempt of a message. On loss,
// the failed attempt's injection slot is released (its packets are gone;
// nothing will call OnDelivered), and after the backoff-scaled RTO a
// fresh copy — identical payload, same delivery continuation — re-enters
// the injection throttle. Retransmitted bytes accrue to the separate
// retransmit ledger so schedule-level conservation stays exact.
func (s *System) armRetry(src topology.Node, msg *noc.Message, h *Handle, attempt int) {
	msg.OnDropped = func(m *noc.Message) {
		if attempt > s.retry.MaxRetries {
			s.Eng.Abort(fmt.Errorf("system: message %d->%d (%d bytes) lost after %d attempts; raise RetryPolicy.MaxRetries or lower the drop rate",
				m.Src, m.Dst, m.Bytes, attempt))
			return
		}
		s.injectDone(src)
		s.Eng.Schedule(s.retry.rto(attempt), func() {
			clone := &noc.Message{Src: m.Src, Dst: m.Dst, Bytes: m.Bytes, Path: m.Path,
				OnDelivered: m.OnDelivered, Ctx: m.Ctx, CtxA: m.CtxA, CtxB: m.CtxB}
			s.retransmits++
			s.retransmittedBytes += m.Bytes
			if h != nil {
				h.retransmits++
			}
			s.armRetry(src, clone, h, attempt+1)
			s.inject(src, clone)
		})
	}
}

// lsqKey identifies one logical scheduling queue.
type lsqKey struct {
	dim      topology.Dim
	channel  int
	phaseIdx int
}

// lsq is a logical scheduling queue: a FIFO of chunks waiting to run one
// phase on one dedicated channel, with at most width chunks active.
type lsq struct {
	width  int
	active int
	queue  fifo.Queue[*chunk]
}

// enqueue admits a chunk, activating it immediately if a slot is free.
func (q *lsq) enqueue(c *chunk) {
	if q.active < q.width {
		q.active++
		c.activate()
		return
	}
	q.queue.Push(c)
}

// release frees the slot held by a finishing chunk and activates the next
// queued one.
func (q *lsq) release(*chunk) {
	if q.queue.Len() > 0 {
		c := *q.queue.Front()
		q.queue.Pop()
		c.activate()
		return
	}
	q.active--
}

// lsqFor returns (creating on demand) the LSQ for a phase lane.
func (s *System) lsqFor(dim topology.Dim, channel, phaseIdx int) *lsq {
	k := lsqKey{dim: dim, channel: channel, phaseIdx: phaseIdx}
	q, ok := s.lsqs[k]
	if !ok {
		q = &lsq{width: s.Cfg.LSQWidth}
		s.lsqs[k] = q
	}
	return q
}

// New builds a system layer over an existing network, either backend.
func New(eng *eventq.Engine, topo topology.Topology, net *noc.Network, cfg config.System) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nmus := make([]nmu, topo.NumNPUs())
	for i := range nmus {
		nmus[i].scale = 1
	}
	injectors := make([]injector, topo.NumNPUs())
	if cfg.InjectionPolicy == config.NormalInjection {
		// Normal: one in-flight message per outgoing physical link.
		for _, l := range topo.Links() {
			if int(l.Src) < len(injectors) {
				injectors[l.Src].capacity++
			}
		}
	}
	dims := topo.Dims()
	lanes := make([][]*lane, len(dims))
	for i, d := range dims {
		lanes[i] = make([]*lane, d.Channels)
	}
	return &System{
		Eng:       eng,
		Topo:      topo,
		Net:       net,
		Cfg:       cfg,
		lsqs:      make(map[lsqKey]*lsq),
		nmus:      nmus,
		injectors: injectors,
		dims:      dims,
		lanes:     lanes,
	}, nil
}

// CollectiveSpec fully describes a collective to issue.
type CollectiveSpec struct {
	Op    collectives.Op
	Bytes int64
	// Tag is free-form, used in reports and traces.
	Tag string
	// Priority orders the ready queue under the Priority policy (lower
	// = more urgent).
	Priority int
	// Scope restricts the collective to a subset of topology dimensions
	// (sub-group collectives for hybrid parallelism); nil = global.
	Scope []topology.Dim
}

// IssueCollective enqueues a collective of op with a total set size of
// bytes at neutral priority. All NPUs participate. Returns the handle;
// completion is signaled via OnComplete.
func (s *System) IssueCollective(op collectives.Op, bytes int64, tag string, onComplete func(*Handle)) (*Handle, error) {
	return s.Issue(CollectiveSpec{Op: op, Bytes: bytes, Tag: tag}, onComplete)
}

// IssueCollectivePriority is IssueCollective with an explicit priority
// (lower = more urgent), honored by the Priority scheduling policy
// (§III-E: first-layer gradients overtake later layers' even when issued
// later). Other policies ignore it.
func (s *System) IssueCollectivePriority(op collectives.Op, bytes int64, tag string, priority int, onComplete func(*Handle)) (*Handle, error) {
	return s.Issue(CollectiveSpec{Op: op, Bytes: bytes, Tag: tag, Priority: priority}, onComplete)
}

// Issue enqueues a fully specified collective.
func (s *System) Issue(spec CollectiveSpec, onComplete func(*Handle)) (*Handle, error) {
	op, bytes, tag, priority := spec.Op, spec.Bytes, spec.Tag, spec.Priority
	if bytes <= 0 {
		return nil, fmt.Errorf("system: collective size must be positive, got %d", bytes)
	}
	phases, err := collectives.CompileScoped(op, s.Topo, s.Cfg.Algorithm, spec.Scope)
	if err != nil {
		return nil, err
	}
	s.nextID++
	h := &Handle{
		ID: s.nextID, Op: op, Bytes: bytes, Tag: tag,
		Priority:   priority,
		OnComplete: onComplete,
		CreatedAt:  s.Eng.Now(),
		phases:     phases,
		queueSum:   make([]eventq.Time, len(phases)+1),
		netSum:     make([]eventq.Time, len(phases)+1),
		queueN:     make([]int, len(phases)+1),
		netN:       make([]int, len(phases)+1),
	}
	if s.Tracer.Enabled() {
		label := tag
		if label == "" {
			label = op.String()
		}
		s.Tracer.NameProcess(h.ID, fmt.Sprintf("collective %d: %s", h.ID, label))
	}
	if len(phases) == 0 {
		// Single-node topology or no-op: complete immediately.
		if s.OnIssue != nil {
			s.OnIssue(h)
		}
		s.Eng.Schedule(0, func() { s.complete(h) })
		return h, nil
	}
	h.chunks = s.makeChunks(h)
	if s.OnIssue != nil {
		s.OnIssue(h)
	}
	s.enqueueReady(h.chunks)
	s.dispatch()
	return h, nil
}

// minChunkBytes keeps chunks from degenerating below a useful pipelining
// granule (Table II ties chunk size to a storage element).
const minChunkBytes = 1024

// makeChunks splits the set into preferred-set-splits chunks.
func (s *System) makeChunks(h *Handle) []*chunk {
	n := s.Cfg.PreferredSetSplits
	if int64(n) > h.Bytes/minChunkBytes {
		n = int(h.Bytes / minChunkBytes)
		if n < 1 {
			n = 1
		}
	}
	per := h.Bytes / int64(n)
	rem := h.Bytes - per*int64(n)
	chunks := make([]*chunk, n)
	for i := range chunks {
		b := per
		if int64(i) < rem {
			b++
		}
		chunks[i] = newChunk(s, h, i, b)
	}
	return chunks
}

// enqueueReady adds a collective's chunks to the ready queue per the
// scheduling policy: LIFO puts the newest collective's chunks at the head
// (prioritizing late-issued early-layer gradients, §III-E), FIFO at the
// tail, and Priority inserts by the collective's explicit priority
// (FIFO-stable among equals). Chunk order within a collective is always
// preserved. The chunks are inserted in place: the queue's array grows
// only while the queue does.
func (s *System) enqueueReady(chunks []*chunk) {
	for _, c := range chunks {
		c.enqueuedAt = s.Eng.Now()
	}
	n := len(s.ready)
	at := n
	switch s.Cfg.SchedulingPolicy {
	case config.LIFO:
		at = 0
	case config.Priority:
		pri := chunks[0].coll.Priority
		for i, c := range s.ready {
			if c.coll.Priority > pri {
				at = i
				break
			}
		}
	}
	s.ready = append(s.ready, chunks...)
	copy(s.ready[at+len(chunks):], s.ready[at:n])
	copy(s.ready[at:], chunks)
}

// dispatch is the paper's dispatcher: while fewer than T chunks are in
// their first phase, issue up to P chunks from the ready queue.
func (s *System) dispatch() {
	for len(s.ready) > 0 && s.inFirstPhase < s.Cfg.IssueThreshold {
		batch := s.Cfg.IssueBatch
		if batch > len(s.ready) {
			batch = len(s.ready)
		}
		// Copy the batch out and close the gap, so the queue keeps its
		// array. c.start may issue a collective whose chunks
		// enqueueReady inserts in place; issue must not alias s.ready.
		// The default batch (16) fits buf, which stays on the stack.
		var buf [16]*chunk
		issue := append(buf[:0], s.ready[:batch]...)
		n := copy(s.ready, s.ready[batch:])
		clear(s.ready[n:])
		s.ready = s.ready[:n]
		for _, c := range issue {
			s.inFirstPhase++
			c.coll.queueSum[0] += s.Eng.Now() - c.enqueuedAt
			c.coll.queueN[0]++
			c.start()
		}
	}
}

// firstPhaseCleared is called by a chunk when every node finished its
// first phase; it may unblock the dispatcher.
func (s *System) firstPhaseCleared() {
	s.inFirstPhase--
	s.dispatch()
}

// chunkComplete is called when a chunk finishes all phases on all nodes.
func (s *System) chunkComplete(c *chunk) {
	h := c.coll
	h.chunksDone++
	if h.chunksDone == len(h.chunks) {
		s.complete(h)
	}
}

func (s *System) complete(h *Handle) {
	h.DoneAt = s.Eng.Now()
	h.done = true
	if h.OnComplete != nil {
		h.OnComplete(h)
	}
}

// endpointDone models the NMU: each received message occupies the
// destination endpoint for EndpointDelay cycles (plus extra, e.g. the
// transport-layer processing of scale-out messages), serialized per
// node. It returns the absolute completion time.
func (s *System) endpointDone(node topology.Node, extra eventq.Time) eventq.Time {
	e := &s.nmus[node]
	cost := eventq.Time(s.Cfg.EndpointDelay) + extra
	if e.scale != 1 || e.carry != 0 {
		// Accumulate the fractional remainder per node (like
		// link.serCycles): truncating each message's scaled cost
		// independently would silently drop up to a cycle per message
		// under fractional straggler factors. At scale 1 and carry 0 this
		// arithmetic returns cost unchanged with carry 0 (for any cost
		// below 2^53 cycles), so a nominal node skips it.
		exact := float64(cost)*e.scale + e.carry
		cost = eventq.Time(exact)
		e.carry = exact - float64(cost)
	}
	e.busy = max(s.Eng.Now(), e.busy) + cost
	return e.busy
}

// endpointReceive runs fn after node's NMU processes one message.
func (s *System) endpointReceive(node topology.Node, extra eventq.Time, fn func()) {
	s.Eng.At(s.endpointDone(node, extra), fn)
}

// endpointReceiveMsg is the closure-free endpointReceive for collective
// messages: the continuation is chunkEndpointDone with message m of
// chunk c (m's Ctx) as its argument, scheduled through the engine's
// static-callback path.
func (s *System) endpointReceiveMsg(c *chunk, m *noc.Message) {
	var extra eventq.Time
	if c.coll.phases[m.CtxA].Dim == topology.DimScaleOut {
		extra = eventq.Time(s.Cfg.TransportDelay)
	}
	s.Eng.CallAt(s.endpointDone(m.Dst, extra), chunkEndpointDone, m)
}

// SendPointToPoint transmits bytes from src to dst over the shortest
// physical route (hardware routing) and runs onDelivered after the
// destination NMU processes it. This is the primitive behind
// pipeline-parallel stage-boundary transfers, which — unlike collectives
// — connect two specific NPUs.
func (s *System) SendPointToPoint(src, dst topology.Node, bytes int64, onDelivered func()) error {
	if bytes <= 0 {
		return fmt.Errorf("system: point-to-point size must be positive, got %d", bytes)
	}
	if s.Net.Partitioned() {
		// Hardware-routed point-to-point paths cross partition components
		// at will, which the conservative-lookahead scheme cannot own.
		return fmt.Errorf("system: point-to-point sends are not supported with intra-run parallelism; run with IntraParallel=0")
	}
	if src == dst {
		s.Eng.Schedule(0, onDelivered)
		return nil
	}
	if s.router == nil {
		s.router = topology.NewRouter(s.Topo)
	}
	if s.OnP2P != nil {
		s.OnP2P(src, dst, bytes)
	}
	s.p2pSeq++
	path := s.router.Route(src, dst, s.p2pSeq)
	msg := &noc.Message{
		Src: src, Dst: dst, Bytes: bytes, Path: path,
		OnDelivered: func(*noc.Message) {
			s.injectDone(src)
			s.endpointReceive(dst, 0, onDelivered)
		},
	}
	s.sendReliable(src, msg, nil)
	return nil
}

// DebugState is a read-only snapshot of the scheduler's in-flight state,
// used by the audit layer's quiescence check: at a drained event queue
// every counter must be zero.
type DebugState struct {
	// ReadyChunks counts chunks accepted but not yet issued.
	ReadyChunks int
	// InFirstPhase counts issued chunks not yet through their first phase.
	InFirstPhase int
	// LSQActive / LSQQueued sum chunks holding or waiting for a slot
	// across all logical scheduling queues.
	LSQActive int
	LSQQueued int
	// InjectorsInFlight / InjectorsQueued sum in-flight message slots and
	// deferred sends across all per-node injection throttles.
	InjectorsInFlight int
	InjectorsQueued   int
}

// DebugState snapshots the scheduler state.
func (s *System) DebugState() DebugState {
	st := DebugState{
		ReadyChunks:  len(s.ready),
		InFirstPhase: s.inFirstPhase,
	}
	for _, q := range s.lsqs {
		st.LSQActive += q.active
		st.LSQQueued += q.queue.Len()
	}
	for i := range s.injectors {
		st.InjectorsInFlight += s.injectors[i].inFlight
		st.InjectorsQueued += s.injectors[i].queue.Len()
	}
	return st
}

// SetNodeStragglerFactor multiplies one NPU's endpoint (NMU) processing
// delay — straggler injection for resilience/what-if studies. Factor 1 is
// nominal; 10 models a node whose message handling is 10x slower. The
// node and factor come from user-supplied plans, so violations are
// returned as errors rather than panics.
func (s *System) SetNodeStragglerFactor(node topology.Node, factor float64) error {
	if node < 0 || int(node) >= len(s.nmus) {
		return fmt.Errorf("system: straggler node %d out of range (%d NPUs)", node, len(s.nmus))
	}
	if factor <= 0 {
		return fmt.Errorf("system: straggler factor must be positive, got %v", factor)
	}
	s.nmus[node].scale = factor
	return nil
}
