// Package noc is the network layer of the simulator: a standalone,
// event-driven, packet-granularity model of the scale-up fabric that
// stands in for Garnet (gem5) in the original ASTRA-SIM.
//
// Messages handed down by the system layer are decomposed into packets
// (Table II: message -> packet -> flit -> phit). A packet is a plain
// value: a link's queue holds its buffered packets, and the network's
// flight FIFOs hold the packets on each link's wire. Each physical link
// serializes one packet at a time at its bandwidth, derated by its link
// efficiency (the data-flit fraction); a serialized packet then takes the
// link's traversal latency plus one router latency per hop to arrive.
// Links have finite input buffers (VCs x buffers-per-VC flits): a packet
// whose next hop's buffer is full keeps occupying the current serializer,
// producing head-of-line backpressure exactly where a Garnet credit stall
// would appear.
//
// All paper experiments use software routing: the system layer gives every
// message its explicit link path (one ring link, or NPU->switch->NPU), so
// the network needs no routing logic of its own.
//
// New builds the link plan (plan.go): which links a collective lane can
// cross at path position >= 1. It gives each link an ordering component,
// stamped into the key of every event its traffic creates, on serial and
// partitioned runs alike, and flags the links no lane crosses there as
// no-transit. A topology with no links, or a zero hop delay, gets no plan.
//
// Single-link messages on source-fed (no-transit) links skip the
// per-packet events: they join the link's packet train and serialize in
// closed form, with results identical to the per-packet model (train.go).
// SetFlowCollapse(false) turns trains off for A/B comparison. A train
// message is charged by the serialization kernel (serkernel.go), which
// memoizes long messages. It costs one delivery event: its segment of the
// train retires lazily, with an event only when a queued packet or a
// blocked upstream link must react. So the link-state reads (LinkStatsFor,
// TotalBytesByClass, UtilizationByClass, Quiet, DebugLinks) first bring
// the lazy state up to date through one settle and report the state the
// engine's last run left; they are made between runs, not from handlers.
//
// NewFast builds the same network with unbounded buffers: the
// congestion-unaware half of the backend duality (config.FastBackend),
// with a send path of its own over the same per-link wire state
// (unbounded.go), whose switch-fed arrivals are lazy records.
//
// Trains and records stand for events that never fire, so they sort as
// those events would, and each decision has one owner: eventq.Key.Before
// is the same-cycle event order, eventq.Engine.KeysFrom builds every key
// from a (ctime, gen2) genealogy, eventq.Engine.ReadKey is the key a read
// sees lazy state from, and the kernel's serCursor is the one per-packet
// replay of a message's carry chain (serkernel.go).
//
// Links optionally carry fault state (SetLinkFaults, driven by the
// internal/faults subsystem): bandwidth degradation windows and outage
// windows consulted at serialization time, and a deterministic,
// seed-derived packet-drop process. A dropped packet consumes its
// serializer slot but is never forwarded; the owning message's OnDropped
// callback fires exactly once so the system layer can retransmit, and the
// bytes the lost packet would have carried over the rest of its path
// accrue to a per-class shortfall ledger (DroppedPathBytesByClass) that
// keeps the audit layer's byte conservation exact under loss. Fault-free
// links pay only a nil check.
//
// # Concurrency contract
//
// A Network is single-threaded by default: it is owned by the goroutine
// that advances its engine, and nothing in it is safe for concurrent
// use. Partition (the intra-run parallel mode, internal/pdes) rebinds
// each link to a shard engine; from then on a link is owned by whichever
// pool worker is advancing its shard's window, and the only cross-engine
// traffic is (a) main→shard injections spliced before the shard runs and
// (b) shard→main deliveries buffered per-shard and flushed by FlushCross
// under the runner's barrier. A link's state includes its entry of the
// network's flight FIFOs: entry id is owned by link id's shard, which is
// also the shard of every link a packet on that wire lands on. The
// serialization memo, with its packet plan memo, is shared by the shards
// of one pool worker, which the runner advances one after another (see
// Partition); no table is shared across pool workers. No locks are taken on the packet hot path in either
// mode; the window protocol is the synchronization.
//
// An unbounded network (NewFast) is always serial: it is owned by the
// goroutine advancing its engine, it builds no link plan, and Partition
// rejects it (config.System.IntraParallel is a packet-model knob). Distinct
// networks of either model share nothing and may run on distinct
// goroutines freely, which is how sweeps parallelize.
package noc

import (
	"fmt"

	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/fifo"
	"astrasim/internal/topology"
)

// Message is one system-layer transfer between two NPUs. The system layer
// fills Src, Dst, Bytes and Path; the network layer fills the timestamps
// and calls OnDelivered when the last packet arrives at Dst.
type Message struct {
	ID    uint64
	Src   topology.Node
	Dst   topology.Node
	Bytes int64
	// Path lists the physical links in traversal order.
	Path []topology.LinkID
	// OnDelivered fires (once) when the final packet reaches Dst. The
	// endpoint (NMU) delay is charged by the system layer, not here.
	OnDelivered func(*Message)
	// OnDropped fires (once, at most) when fault injection drops one of
	// the message's packets. A message that loses a packet can never
	// deliver (packetsLeft never reaches zero), so exactly one of
	// OnDelivered / OnDropped fires per message. The system layer's
	// retransmit protocol hangs off this hook; it is nil — and costs
	// nothing — outside fault runs.
	OnDropped func(*Message)
	// Ctx, CtxA and CtxB are opaque sender context carried untouched by
	// the network. They let OnDelivered and the sender's later events for
	// the message be shared top-level functions that recover their state
	// from it, keeping the hot path allocation-free: the system layer's
	// delivery callback and endpoint event find the chunk in Ctx.
	Ctx        any
	CtxA, CtxB int32

	// Injected is when Send was called.
	Injected eventq.Time
	// SerStart is when the first packet began serializing on the first
	// link. SerStart - Injected is the message's queuing delay.
	SerStart eventq.Time
	// Delivered is when the last packet arrived. Delivered - SerStart is
	// the message's network delay.
	Delivered eventq.Time

	// net is the network Send injected the message into: the delivery
	// event's one argument is the message.
	net         *Network
	packetsLeft int
	started     bool
	// lost marks that a packet was dropped (OnDropped fired); further
	// drops of the same message are not re-reported.
	lost bool
}

// QueueDelay returns the cycles the message waited at its source before
// its first packet started serializing.
func (m *Message) QueueDelay() eventq.Time { return m.SerStart - m.Injected }

// NetworkDelay returns the cycles between first serialization and final
// delivery.
func (m *Message) NetworkDelay() eventq.Time { return m.Delivered - m.SerStart }

// packet is one packet of a message, a plain value: link queues and
// wires hold it by value, so it has no lifecycle of its own. pathPos is
// the path index of the link the packet is queued at or travelling to.
type packet struct {
	msg     *Message
	bytes   int64
	pathPos int32
	// last marks a message's final packet on the unbounded model, whose
	// arrival at the final hop delivers the message.
	last bool
}

// Window is a half-open interval [Start, End) of simulation cycles during
// which a fault condition is active.
type Window struct {
	Start, End eventq.Time
}

// contains reports whether t falls inside the window.
func (w Window) contains(t eventq.Time) bool { return t >= w.Start && t < w.End }

// Degrade scales a link's effective bandwidth by Factor while its window
// is active (0 < Factor < 1 derates; Factor > 1 boosts). Overlapping
// windows multiply.
type Degrade struct {
	Window
	Factor float64
}

// LinkFaults is the complete fault configuration for one link: bandwidth
// degradation windows, outage windows during which the serializer is down,
// and a per-packet drop probability. The zero value is fault-free.
type LinkFaults struct {
	Degrades []Degrade
	Outages  []Window
	// DropProb is the probability, decided deterministically per
	// serialized packet from the fault seed, that the packet is corrupted
	// in flight: it occupies the serializer and is counted by the link's
	// byte/packet stats, but never reaches the next hop.
	DropProb float64
}

// linkFault is the per-link fault state machine, consulted at
// serialization time. Links without faults keep a nil pointer, so the
// fault-free hot path pays exactly one predictable branch per packet.
type linkFault struct {
	LinkFaults
	seed uint64
	// wakeArmed dedups the deferred kick scheduled for the end of the
	// outage window currently blocking this link.
	wakeArmed bool
}

// degradeFactor returns the combined bandwidth multiplier active at now.
func (f *linkFault) degradeFactor(now eventq.Time) float64 {
	factor := 1.0
	for _, d := range f.Degrades {
		if d.contains(now) {
			factor *= d.Factor
		}
	}
	return factor
}

// outageUntil reports whether the link is down at now and, if so, when the
// covering outage window ends.
func (f *linkFault) outageUntil(now eventq.Time) (eventq.Time, bool) {
	var until eventq.Time
	down := false
	for _, w := range f.Outages {
		if w.contains(now) && w.End > until {
			until, down = w.End, true
		}
	}
	return until, down
}

// splitmix64 is the deterministic hash behind packet-drop decisions: a
// stateless mix of (seed, link, packet sequence number) that reproduces
// bit-identically for a given fault plan regardless of sweep parallelism.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// roll returns the uniform [0,1) drop roll for the packet about to retire
// on l (identified by its serialized-packet sequence number).
func (f *linkFault) roll(l *link) float64 {
	x := splitmix64(f.seed ^ splitmix64(uint64(l.spec.ID))*0x9E3779B97F4A7C15 ^ l.stats.Packets)
	return float64(x>>11) / (1 << 53)
}

// FaultStats aggregates fault-injection activity across the network.
type FaultStats struct {
	// DroppedPackets / DroppedBytes count packets discarded by drop
	// injection (each occupied its serializer before being lost).
	DroppedPackets uint64
	DroppedBytes   int64
}

// LinkStats aggregates per-link activity counters.
type LinkStats struct {
	Packets    uint64
	Bytes      int64
	BusyCycles eventq.Time
	// BlockedCycles counts serializer time lost to downstream
	// backpressure (head-of-line blocking).
	BlockedCycles eventq.Time
	// PeakQueue is the largest number of packets ever queued.
	PeakQueue int
}

// wire is the per-link state both models keep: the link itself, its
// serializer's rate and carry, its hop delay and packet size, and its
// counters. The packet model's link embeds it; the unbounded model keeps
// nothing else per link, so a wire must stay within 128 bytes
// (TestWireSize): the fast backend's hot loop walks them.
type wire struct {
	spec topology.LinkSpec
	net  *Network
	// effBW is the serialization rate in effective bytes/cycle
	// (bandwidth x efficiency).
	effBW float64
	// serCarry accumulates sub-cycle serialization remainders.
	serCarry float64
	// hop is hopDelay's value, resolved at construction.
	hop eventq.Time
	// pktSize is the link class's packet size.
	pktSize int64
	// busyUntil is when the unbounded model's serializer frees up; the
	// packet model tracks its serializer in link instead.
	busyUntil eventq.Time
	stats     LinkStats
}

// hopDelay is the post-serialization delay to the next stage: wire latency
// plus one router pipeline.
func (w *wire) hopDelay() eventq.Time { return w.hop }

type link struct {
	wire
	// eng is the engine this link's events run on: the network's main
	// engine, or — when the network is partitioned for intra-run
	// parallelism — the shard engine owning the link's component.
	eng *eventq.Engine
	// sh is nil in serial mode; when partitioned it is the link's shard
	// context (engine, outbox toward the main engine, serialization memo).
	sh *shard
	// comp is the link's 1-based plan component (0 when the topology has
	// no plan), stamped into event-ordering keys on serial and partitioned
	// runs alike (see eventq.Key and plan.go).
	comp uint32
	// noTransit marks links no collective lane uses at path position
	// >= 1: collective traffic only enters by source injection, which
	// licenses packet trains (see train.go).
	noTransit bool

	// train holds the closed-form messages serializing ahead of queue.
	train train

	// ser memoizes train charges: the network's table in serial mode,
	// the owning shard's pool worker's otherwise.
	ser *SerTable
	// capPackets bounds the queue for packets arriving from another link
	// (switch input buffering). Source injection is unbounded: endpoint
	// queuing is the system-layer "queue delay".
	capPackets int

	// queue is the FIFO of buffered packets. Its array is reused across
	// the whole run, also on a link whose queue never drains.
	queue fifo.Queue[packet]
	// reserved counts buffer slots promised to packets in flight on the
	// wire toward this link (credit-style flow control).
	reserved int
	busy     bool
	blocked  bool
	// blockStart is when the current head packet finished serializing
	// and began waiting on downstream buffer space.
	blockStart eventq.Time
	// curSer is the serialization time of the in-flight head packet,
	// charged to BusyCycles when serialization completes.
	curSer eventq.Time
	// waiters are upstream links stalled on this link's buffer space.
	waiters fifo.Queue[*link]
	// fault, when non-nil, is the link's fault-injection state machine
	// (degradation, outages, drops); nil on every fault-free run.
	fault *linkFault
}

// serCycles returns the serialization time for one packet, carrying the
// fractional-cycle remainder across packets so a long packet stream moves
// at exactly bandwidth x efficiency (no per-packet rounding inflation).
// An active degradation window scales the rate for packets that start
// serializing inside it.
func (l *link) serCycles(bytes int64) eventq.Time {
	bw := l.effBW
	if f := l.fault; f != nil {
		bw *= f.degradeFactor(l.eng.Now())
	}
	var c eventq.Time
	c, l.serCarry = SerStep(bytes, bw, l.serCarry)
	return c
}

// Network simulates the fabric over a topology's physical links, with
// the packet model (New) or with unbounded buffers (NewFast).
type Network struct {
	eng    *eventq.Engine
	params config.Network
	// wires holds every link's shared state, indexed by LinkID: pointers
	// into links on the packet model, into one flat array on the
	// unbounded one.
	wires []*wire
	// links is the packet model's links; nil on an unbounded network.
	links  []*link
	nextID uint64
	// unbounded selects the unbounded-buffer send path (NewFast).
	unbounded bool
	// npus is the topology's NPU count: nodes from npus up are switches.
	npus int
	// pend[id] is the unbounded model's pending arrival records at
	// switch-fed link id, a min-heap of runs (unbounded.go). pend is nil
	// on the packet model and on switch-free topologies.
	pend [][]hopRun
	// hopEvents makes every unbounded arrival an event, records off: the
	// per-packet reference the records are tested against.
	hopEvents bool

	// flight[id] holds the packets on link id's wire, in the order they
	// left its serializer; each arrival event names link id and pops the
	// front. FIFO is exact: every packet on one wire takes that wire's
	// single hop delay, and leaves strictly later than the one before it.
	// On the packet model a link serializes one packet at a time, each for
	// at least one cycle, and a blocked head leaves only when released,
	// before the next one starts; on the unbounded model each charge of a
	// wire ends strictly later than the previous one. Both models use it.
	flight []fifo.Queue[packet]

	// OnSend, when non-nil, observes every injected message after its ID
	// and Injected timestamp are assigned and before packetization. The
	// audit layer uses it for byte-conservation accounting; disabled it
	// costs one nil check per message (not per packet).
	OnSend func(*Message)

	// DeliveredMessages counts completed messages (for tests/stats).
	DeliveredMessages uint64

	// dropStats counts fault-injected packet losses; shortfallByClass
	// accumulates, per link class, the bytes dropped packets would have
	// carried across the path links they never reached — the exact
	// correction term the audit layer applies to per-class conservation.
	dropStats        FaultStats
	shortfallByClass [int(topology.ScaleOutLink) + 1]int64

	// shards, when non-nil, are the per-partition execution contexts of
	// an intra-run parallel simulation (see Partition). crossTree is
	// FlushCross's tournament tree over the shards' outboxes (mergeCross),
	// allocated once by Partition: finalists in the lower half, subtree
	// winners while the tree is built in the upper half.
	shards    []*shard
	crossTree []int32
	// noTrains disables packet trains for A/B testing (SetFlowCollapse).
	noTrains bool
	// ser is the serial links' serialization memo, or the unbounded
	// model's, which memoizes every single-link send.
	ser SerTable

	// comps is the link plan's component count and lookahead its minimum
	// wire hop delay; planErr says why a packet network has no plan
	// (plan.go). The unbounded model builds none.
	comps     int
	lookahead eventq.Time
	planErr   error
}

// Backend identifies the model in the backend duality.
func (n *Network) Backend() config.Backend {
	if n.unbounded {
		return config.FastBackend
	}
	return config.PacketBackend
}

// SerLen reports the number of charges held in the network's
// serialization memo (at most SerTableMaxEntries).
func (n *Network) SerLen() int { return n.ser.Len() }

// New builds the packet model of topo's fabric with the given Garnet-level
// parameters, and its link plan (plan.go): the links' ordering components
// and no-transit flags.
func New(eng *eventq.Engine, topo topology.Topology, p config.Network) (*Network, error) {
	return build(eng, topo, p, false)
}

// NewFast builds the unbounded-buffer model of topo's fabric with the same
// parameters as New; buffer capacities are ignored (see unbounded.go).
func NewFast(eng *eventq.Engine, topo topology.Topology, p config.Network) (*Network, error) {
	return build(eng, topo, p, true)
}

// build is New and NewFast: one wire per link, resolved from the link's
// class, inside a packet link or in one flat array.
func build(eng *eventq.Engine, topo topology.Topology, p config.Network, unbounded bool) (*Network, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	specs := topo.Links()
	n := &Network{eng: eng, params: p, unbounded: unbounded, wires: make([]*wire, len(specs)),
		flight: make([]fifo.Queue[packet], len(specs)), npus: topo.NumNPUs()}
	var flat []wire
	if unbounded {
		n.ser = NewSerTable()
		flat = make([]wire, len(specs))
		if topo.NumNodes() > n.npus {
			n.pend = make([][]hopRun, len(specs))
		}
	} else {
		n.ser = newTrainTable()
		n.links = make([]*link, len(specs))
	}
	flitBytes := max(p.FlitWidthBits/8, 1)
	for i, spec := range specs {
		var bw, eff float64
		var lat uint64
		var pkt int
		switch spec.Class {
		case topology.IntraPackage:
			bw, eff, lat, pkt = p.LocalLinkBandwidth, p.LocalLinkEfficiency, p.LocalLinkLatency, p.LocalPacketSize
		case topology.InterPackage:
			bw, eff, lat, pkt = p.PackageLinkBandwidth, p.PackageLinkEfficiency, p.PackageLinkLatency, p.PackagePacketSize
		case topology.ScaleOutLink:
			bw, eff, lat, pkt = p.ScaleOutLinkBandwidth, p.ScaleOutLinkEfficiency, p.ScaleOutLinkLatency, p.ScaleOutPacketSize
		default:
			// A link class without configured bandwidth/latency/packet-size
			// parameters would serialize at rate zero; refuse at
			// construction instead of diverging mid-simulation.
			return nil, fmt.Errorf("noc: link %d has class %v with no configured network parameters", spec.ID, spec.Class)
		}
		w := wire{spec: spec, net: n, effBW: bw * eff, hop: eventq.Time(lat + p.RouterLatency), pktSize: int64(pkt)}
		if unbounded {
			flat[i] = w
			n.wires[i] = &flat[i]
			continue
		}
		l := &link{wire: w, eng: eng, ser: &n.ser,
			capPackets: bufferPackets(p.VCsPerVNet, p.BuffersPerVC, flitBytes, pkt)}
		n.links[i], n.wires[i] = l, &l.wire
	}
	if !unbounded {
		n.plan(topo)
	}
	return n, nil
}

func bufferPackets(vcs, buffersPerVC, flitBytes, packetSize int) int {
	totalBytes := vcs * buffersPerVC * flitBytes
	cap := totalBytes / packetSize
	if cap < 1 {
		cap = 1
	}
	return cap
}

// pathPacketSize returns the packet size for a message traversing path,
// whose first link is first: the smallest packet-size class along it, so
// no hop ever carries a packet larger than its class allows (a
// local-link-entry message that crosses inter-package or scale-out hops
// must be chunked for the tightest hop — downstream buffer capacities are
// computed per class). The caller has first loaded already, so a
// one-link path reads no other wire.
func (n *Network) pathPacketSize(first *wire, path []topology.LinkID) int64 {
	pktSize := first.pktSize
	for _, id := range path[1:] {
		if ps := n.wires[id].pktSize; ps < pktSize {
			pktSize = ps
		}
	}
	return pktSize
}

// Send injects msg. The message must have a non-empty path and positive
// size. Packets are enqueued on the first link immediately; queuing delay
// accrues there until serialization begins. On a partitioned network the
// packetization is deferred to the owning shard's engine under the
// sender's splice key, which preserves the serial event order exactly
// (see internal/pdes).
func (n *Network) Send(msg *Message) {
	if len(msg.Path) == 0 {
		panic("noc: message with empty path")
	}
	if msg.Bytes <= 0 {
		panic(fmt.Sprintf("noc: message with %d bytes", msg.Bytes))
	}
	n.nextID++
	msg.ID = n.nextID
	msg.Injected = n.eng.Now()
	msg.net = n
	if n.OnSend != nil {
		n.OnSend(msg)
	}
	if n.unbounded {
		n.sendUnbounded(msg)
		return
	}

	first := n.links[msg.Path[0]]
	if first.sh != nil {
		for _, id := range msg.Path[1:] {
			if n.links[id].sh != first.sh {
				// The link plan keeps every collective lane inside one
				// component; a path crossing shards can only come from an
				// unplanned routing mode (point-to-point is rejected
				// upstream with a friendly error).
				panic(fmt.Sprintf("noc: message path crosses partition shards (links %d and %d)", msg.Path[0], id))
			}
		}
		k, sub := n.eng.SpliceKey()
		first.sh.eng.InjectAt(n.eng.Now(), k, sub, shardInject, msg)
		return
	}
	// Serial mode: stamp the link's component (0 when the topology has no
	// link plan) for the duration of the injection so the packets' events
	// — and everything they transitively create — carry the same ordering
	// keys a partitioned run would produce (see shardInject).
	fk := n.eng.FiringKey()
	n.eng.SetFiringComp(first.comp)
	n.inject(first, msg, fk)
	n.eng.SetFiringComp(fk.Comp)
}

// inject puts msg on its first link: onto the link's packet train when it
// qualifies, else packet by packet. fk is the injecting event's key,
// taken before the link's component was stamped.
func (n *Network) inject(first *link, msg *Message, fk eventq.Key) {
	if first.canTrain(msg) {
		first.appendTrain(msg, fk)
		return
	}
	n.packetize(first, msg, first.trainLeft(fk))
}

// packetPlan computes the packet size and count for msg along its path,
// whose first link is first: the smallest class packet size along the
// path, capped by MaxPacketsPerMessage. The divisions run through the
// plan memo of ser, which must be the serialization table of the engine
// packetizing msg (SerTable.plan): the serial network's own table, or
// the pool worker's for a link of a partitioned one.
func (n *Network) packetPlan(msg *Message, first *wire, ser *SerTable) (pktSize, numPkts int64) {
	return ser.plan(msg.Bytes, n.pathPacketSize(first, msg.Path), int64(n.params.MaxPacketsPerMessage))
}

// packetize decomposes msg into packets on its first link, behind the
// link's virt unserialized train packets.
func (n *Network) packetize(first *link, msg *Message, virt int) {
	pktSize, numPkts := n.packetPlan(msg, &first.wire, first.ser)
	msg.packetsLeft = int(numPkts)
	remaining := msg.Bytes
	for i := int64(0); i < numPkts; i++ {
		b := pktSize
		if b > remaining {
			b = remaining
		}
		remaining -= b
		first.qpush(packet{msg: msg, bytes: b}, virt)
		first.kick()
	}
}

// qpush appends a packet behind virt unserialized train packets. A packet
// queuing behind a live train arms the train's last segment-done event.
func (l *link) qpush(p packet, virt int) {
	if virt > 0 {
		l.armTail()
	}
	l.queue.Push(p)
	l.stats.PeakQueue = max(l.stats.PeakQueue, l.queue.Len()+virt)
}

// hasSpace reports whether the buffer can take one more packet, counting
// slots reserved for packets already in flight toward this link and the
// train's unserialized packets.
func (l *link) hasSpace() bool {
	return l.queue.Len()+l.reserved+l.trainLeft(l.eng.FiringKey()) < l.capPackets
}

// send puts head packet p on l's wire toward next: it reserves a slot in
// next's buffer and lands there after l's hop delay (wire latency plus
// one router hop).
func (l *link) send(next *link, p packet) {
	next.reserved++
	p.pathPos++
	l.net.flight[l.spec.ID].Push(p)
	l.eng.Call(l.hopDelay(), linkArrive, l)
}

// linkArrive is the eventq.CallFunc that lands the front packet of link
// a's wire on the next link of its path (static function: no per-packet
// closure allocation).
func linkArrive(a any) {
	up := a.(*link)
	f := &up.net.flight[up.spec.ID]
	p := *f.Front()
	f.Pop()
	l := up.net.links[p.msg.Path[p.pathPos]]
	l.reserved--
	l.qpush(p, l.trainLeft(l.eng.FiringKey()))
	l.kick()
}

// kick starts serializing the head packet if the link is idle. A link
// inside an outage window does not start new serializations; the queue
// holds and a deferred kick fires when the outage lifts.
func (l *link) kick() {
	if l.busy || l.blocked || l.queue.Len() == 0 {
		return
	}
	if f := l.fault; f != nil {
		if until, down := f.outageUntil(l.eng.Now()); down {
			if !f.wakeArmed {
				f.wakeArmed = true
				l.eng.CallAt(until, linkOutageLifted, l)
			}
			return
		}
	}
	p := l.queue.Front()
	l.busy = true
	if !p.msg.started && p.pathPos == 0 {
		p.msg.started = true
		p.msg.SerStart = l.eng.Now()
	}
	// The head packet stays at the queue's front until forward() retires
	// it, so only one serialization is ever in flight per link and curSer
	// is unambiguous.
	l.curSer = l.serCycles(p.bytes)
	l.eng.Call(l.curSer, linkSerDone, l)
}

// linkSerDone is the eventq.CallFunc that fires when link a finishes
// serializing its head packet. With drop injection active on the link, the
// packet may be discarded here instead of forwarded: it consumed the
// serializer (and is counted by the link's stats) but never reaches the
// next hop — the corrupted-in-flight model.
func linkSerDone(a any) {
	l := a.(*link)
	l.stats.BusyCycles += l.curSer
	p := *l.queue.Front()
	if f := l.fault; f != nil && f.DropProb > 0 && f.roll(l) < f.DropProb {
		l.net.dropPacket(l, p)
		return
	}
	l.forward(p)
}

// linkOutageLifted is the eventq.CallFunc that restarts link a's
// serializer when the outage window that stalled it ends.
func linkOutageLifted(a any) {
	l := a.(*link)
	l.fault.wakeArmed = false
	l.kick()
}

// dropPacket discards a serialized packet: the drop link's counters keep
// the bytes (they crossed its serializer), every downstream path link is
// charged to the shortfall ledger, and the owning message is marked lost —
// firing OnDropped exactly once so the system layer's retransmit protocol
// can recover.
func (n *Network) dropPacket(l *link, p packet) {
	msg := p.msg
	n.dropStats.DroppedPackets++
	n.dropStats.DroppedBytes += p.bytes
	for _, id := range msg.Path[p.pathPos+1:] {
		n.shortfallByClass[n.wires[id].spec.Class] += p.bytes
	}
	l.finishHead()
	if !msg.lost {
		msg.lost = true
		if msg.OnDropped != nil {
			msg.OnDropped(msg)
		}
	}
}

// forward hands the head packet to its next stage (downstream link or
// destination endpoint). If the downstream buffer is full the packet keeps
// the serializer busy (head-of-line blocking) until space frees.
func (l *link) forward(p packet) {
	if int(p.pathPos)+1 < len(p.msg.Path) {
		next := l.net.links[p.msg.Path[p.pathPos+1]]
		if !next.hasSpace() {
			l.blocked = true
			l.blockStart = l.eng.Now()
			next.waiters.Push(l)
			next.armRelease(l.eng.FiringKey())
			return
		}
		l.send(next, p)
	} else if l.sh != nil {
		// Final hop on a partitioned network: the delivery belongs to the
		// main engine. Buffer it in the shard's outbox under a key that
		// places it exactly where the serial engine would fire it; the
		// pdes runner injects it at the window barrier.
		l.sh.push(outEvent{
			at:  l.eng.Now() + l.hopDelay(),
			key: l.eng.EventKey(),
			msg: p.msg,
		})
	} else {
		// Final hop: arrival at the destination endpoint.
		l.eng.Call(l.hopDelay(), packetDelivered, p.msg)
	}
	l.finishHead()
}

// packetDelivered is the eventq.CallFunc that lands one packet of message
// a at its destination endpoint; the last one delivers the message. A
// packet train and the unbounded model deliver a message with one event,
// so their sends set packetsLeft to 1.
func packetDelivered(a any) {
	msg := a.(*Message)
	if msg.packetsLeft--; msg.packetsLeft == 0 {
		n := msg.net
		msg.Delivered = n.eng.Now()
		n.DeliveredMessages++
		if msg.OnDelivered != nil {
			msg.OnDelivered(msg)
		}
	}
}

// finishHead retires the serialized head packet and restarts the
// pipeline.
func (l *link) finishHead() {
	l.stats.Packets++
	l.stats.Bytes += l.queue.Front().bytes
	l.queue.Pop()
	l.busy = false
	l.blocked = false
	l.kick()
	l.releaseWaiters()
}

// releaseWaiters unblocks upstream links stalled on this link's buffer.
func (l *link) releaseWaiters() {
	for l.waiters.Len() > 0 && l.hasSpace() {
		w := *l.waiters.Front()
		l.waiters.Pop()
		w.stats.BlockedCycles += l.eng.Now() - w.blockStart
		w.send(l, *w.queue.Front())
		// The waiting link's serializer was blocked, not re-run: retire
		// its head now that the hand-off succeeded.
		w.finishHead()
	}
}

// settle brings link id's lazy state up to what a link-state read from
// outside any handler must see (eventq.Engine.ReadKey): on the packet
// model it retires the train segments that have ended, on the unbounded
// one it charges the arrival records that have landed.
func (n *Network) settle(id topology.LinkID) {
	if n.links != nil {
		l := n.links[id]
		l.retire(l.eng.ReadKey())
	} else if n.pend != nil && len(n.pend[id]) > 0 {
		n.chargeRecords(n.wires[id], n.eng.Now(), n.eng.ReadKey())
	}
}

// settleAll is settle on every link.
func (n *Network) settleAll() {
	for id := range n.wires {
		n.settle(topology.LinkID(id))
	}
}

// LinkStatsFor returns a copy of the counters for one link.
func (n *Network) LinkStatsFor(id topology.LinkID) LinkStats {
	n.settle(id)
	return n.wires[id].stats
}

// TotalBytesByClass sums bytes carried per link class.
func (n *Network) TotalBytesByClass() (intra, inter, scaleOut int64) {
	n.settleAll()
	for _, w := range n.wires {
		switch w.spec.Class {
		case topology.IntraPackage:
			intra += w.stats.Bytes
		case topology.InterPackage:
			inter += w.stats.Bytes
		case topology.ScaleOutLink:
			scaleOut += w.stats.Bytes
		}
	}
	return intra, inter, scaleOut
}

// ScaleLinkBandwidth derates (factor < 1) or boosts one link's effective
// bandwidth — fault-injection and what-if hook for degraded-link studies.
// Must be called before traffic that should observe it. For time-windowed
// degradation use SetLinkFaults instead.
func (n *Network) ScaleLinkBandwidth(id topology.LinkID, factor float64) {
	if factor <= 0 {
		panic(fmt.Sprintf("noc: bandwidth scale must be positive, got %v", factor))
	}
	// Arrivals already recorded serialize at the old rate. A train's
	// segments keep the rate they were charged at, so it is left as is.
	if n.unbounded {
		n.settle(id)
	}
	n.wires[id].effBW *= factor
}

// SetLinkFaults installs (or, with a zero-value LinkFaults, clears) one
// link's fault-injection state: degradation windows, outage windows, and
// a drop probability whose per-packet decisions derive deterministically
// from seed. Call before the traffic that should observe the faults.
// Windows must be well-formed (Start < End), degrade factors positive,
// and DropProb within [0, 1); a malformed configuration is returned as an
// error so fault state reachable from user-supplied plans can never take
// a long-running process down. The unbounded model takes no faults.
func (n *Network) SetLinkFaults(id topology.LinkID, f LinkFaults, seed uint64) error {
	if n.unbounded {
		return fmt.Errorf("noc: link faults need the packet model; the unbounded network does not model them")
	}
	if n.shards != nil {
		return fmt.Errorf("noc: link faults are not supported with intra-run parallelism; run with IntraParallel=0 (serial engine) for fault injection")
	}
	if id < 0 || int(id) >= len(n.links) {
		return fmt.Errorf("noc: link %d out of range (%d links)", id, len(n.links))
	}
	for _, d := range f.Degrades {
		if d.Factor <= 0 {
			return fmt.Errorf("noc: degrade factor must be positive, got %v", d.Factor)
		}
		if d.Start >= d.End {
			return fmt.Errorf("noc: degrade window [%d,%d) is empty", d.Start, d.End)
		}
	}
	for _, w := range f.Outages {
		if w.Start >= w.End {
			return fmt.Errorf("noc: outage window [%d,%d) is empty", w.Start, w.End)
		}
	}
	if f.DropProb < 0 || f.DropProb >= 1 {
		return fmt.Errorf("noc: drop probability must be in [0,1), got %v", f.DropProb)
	}
	if len(f.Degrades) == 0 && len(f.Outages) == 0 && f.DropProb == 0 {
		n.links[id].fault = nil
		return nil
	}
	n.links[id].fault = &linkFault{LinkFaults: f, seed: seed}
	return nil
}

// DropStats reports the fault-injection loss totals for the whole run.
func (n *Network) DropStats() FaultStats { return n.dropStats }

// DroppedPathBytesByClass returns, per link class, the bytes that dropped
// packets would have carried across the path links downstream of their
// drop point. TotalBytesByClass plus these shortfalls equals the per-class
// path bytes of all injected messages — the audit layer's fault-adjusted
// conservation identity.
func (n *Network) DroppedPathBytesByClass() (intra, inter, scaleOut int64) {
	return n.shortfallByClass[topology.IntraPackage],
		n.shortfallByClass[topology.InterPackage],
		n.shortfallByClass[topology.ScaleOutLink]
}

// ClassUtilization summarizes one link class's activity over a window.
type ClassUtilization struct {
	Links int
	// AvgBusy is the mean fraction of the window links spent
	// serializing; PeakBusy is the busiest single link's fraction.
	AvgBusy  float64
	PeakBusy float64
}

// UtilizationByClass computes per-class link utilization over the window
// [0, until] — the occupancy report behind capacity-planning studies.
func (n *Network) UtilizationByClass(until eventq.Time) map[topology.LinkClass]ClassUtilization {
	out := make(map[topology.LinkClass]ClassUtilization)
	if until == 0 {
		return out
	}
	n.settleAll()
	for _, w := range n.wires {
		u := out[w.spec.Class]
		u.Links++
		busy := float64(w.stats.BusyCycles) / float64(until)
		u.AvgBusy += busy
		if busy > u.PeakBusy {
			u.PeakBusy = busy
		}
		out[w.spec.Class] = u
	}
	for class, u := range out {
		u.AvgBusy /= float64(u.Links)
		out[class] = u
	}
	return out
}

// Quiet reports whether no packets are queued or in flight on any link,
// and (on a partitioned network) no delivery is buffered toward the main
// engine. An unbounded network is quiet when every message it was sent
// has been delivered: it loses none.
func (n *Network) Quiet() bool {
	n.settleAll()
	if n.unbounded {
		return n.DeliveredMessages == n.nextID
	}
	for _, l := range n.links {
		if l.busy || l.queue.Len() > 0 || l.reserved > 0 {
			return false
		}
	}
	for _, sh := range n.shards {
		if len(sh.out) > 0 {
			return false
		}
	}
	return true
}

// LinkDebugState is a read-only snapshot of one link's dynamic state, for
// the audit layer's quiescence and stats-monotonicity checks.
type LinkDebugState struct {
	ID    topology.LinkID
	Class topology.LinkClass
	// Queued packets, Reserved in-flight buffer slots, and Waiters
	// (upstream links stalled on this buffer) must all be zero at
	// quiescence; Busy/Blocked must be false. Queued counts a train's
	// unserialized packets too, as the per-packet model queues them.
	Queued   int
	Reserved int
	Waiters  int
	Busy     bool
	Blocked  bool
	// Pending counts the unbounded model's arrival records at the link
	// that the snapshot's read does not yet see charged: packets still on
	// the wire toward it. It too must be zero at quiescence.
	Pending int
	Stats   LinkStats
}

// DebugLinks snapshots every link's dynamic state. The unbounded model
// holds no queues or reservations; its link is busy while its charged
// serialization extends past now, and it reports its pending records.
func (n *Network) DebugLinks() []LinkDebugState {
	n.settleAll()
	out := make([]LinkDebugState, len(n.wires))
	for i, w := range n.wires {
		d := LinkDebugState{ID: w.spec.ID, Class: w.spec.Class, Busy: w.busyUntil > n.eng.Now(),
			Pending: n.pendingRecords(w.spec.ID), Stats: w.stats}
		if !n.unbounded {
			l := n.links[i]
			d.Queued, d.Reserved, d.Waiters = l.queue.Len()+l.trainLeft(l.eng.ReadKey()), l.reserved, l.waiters.Len()
			d.Busy, d.Blocked = l.busy, l.blocked
		}
		out[i] = d
	}
	return out
}
