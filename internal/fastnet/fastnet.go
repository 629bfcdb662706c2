// Package fastnet is the congestion-unaware analytical network backend:
// the fast half of the simulator's backend duality (config.FastBackend),
// standing in for the original ASTRA-SIM's analytical network binary the
// way internal/noc stands in for its Garnet binary.
//
// The model is the oracle's alpha-beta recurrence promoted to a live
// transport: every link is a FIFO serializer with the packet model's exact
// rate arithmetic (bandwidth x efficiency with the sub-cycle carry, the
// minimum-one-cycle clamp, per-class packetization and the
// MaxPacketsPerMessage cap) and the packet model's hop delay (wire latency
// plus one router pipeline) — but with unlimited input buffers, so no
// backpressure ever stalls a serializer. Removing buffer limits is the
// entire semantic difference from internal/noc: on any run where the
// packet model's buffers never fill (the oracle's uncongested validity
// domain, and in practice every paper-configuration run — Table IV buffers
// hold thousands of packets), the two backends produce byte-identical
// timestamps, because a FIFO serializer that is never blocked has a
// timeline fully determined by its arrival order.
//
// That determinism is what makes the model fast. A packet entering an
// unblockable FIFO link can be charged its serialization interval the
// moment it arrives: start = max(now, link.busyUntil), advancing the same
// carry the packet model would. So a message over a single-link path (the
// dominant case — every torus ring hop) costs one delivery event instead
// of ~3 queued events per packet, and its whole charge is one call to
// internal/noc's serialization kernel (noc.SerTable.Charge), the same one
// the packet backend's trains use. The network's memo (a noc.SerTable)
// keeps every charge: it is a pure function of the link's bandwidth and
// carry bits plus the packet schedule, and symmetric topologies replay
// one link's carry orbit on every link, collapsing the steady-state cost
// to O(1) per message. Each link's packet size is resolved at
// construction, so a send does no map lookups.
// Multi-hop paths (switch and scale-out fabrics) keep one arrival event
// per packet per downstream hop, because packets from different sources
// interleave there in arrival order; the serialization at each hop is
// still charged eagerly, one noc.SerStep per packet. Each arrival event
// carries the ordering key the packet backend's would (created when the
// packet's upstream serialization ends), so same-cycle arrivals from
// different sources serialize in the same order on both backends. Both
// backends run the one kernel, iterated rather than telescoped, so the
// float stream is bit-identical to internal/noc's.
//
// Fault injection (outages, degradation windows, drops) is packet-only:
// congestion-unaware timing under loss is not meaningful, and callers are
// rejected at configuration time (see internal/faults).
//
// # Concurrency contract
//
// A fastnet.Network is not safe for concurrent use: like the serial
// packet backend, it is owned by the goroutine advancing its engine.
// It is also always serial — the backend is analytic end-to-end, so
// config.System.IntraParallel is deliberately ignored (there is no event
// load to shard). Distinct instances share nothing and may run on
// distinct goroutines freely, which is how sweeps parallelize.
package fastnet

import (
	"fmt"

	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/noc"
	"astrasim/internal/topology"
)

// flink is one physical link's analytical state: a never-blocked FIFO
// serializer.
type flink struct {
	spec topology.LinkSpec
	net  *Network

	// effBW is the serialization rate in effective bytes/cycle.
	effBW float64
	// pktSize is the link class's packet size, resolved at construction.
	pktSize int64
	// serCarry accumulates sub-cycle serialization remainders, exactly as
	// noc's link.serCarry does.
	serCarry float64
	latency  eventq.Time
	// busyUntil is when the serializer frees up: with unlimited buffers
	// and FIFO order, the start time of any newly charged packet is
	// max(now, busyUntil) regardless of future traffic.
	busyUntil eventq.Time

	stats noc.LinkStats
}

// serCycles charges one packet's serialization with noc's step, so the
// two backends agree bit-for-bit.
func (l *flink) serCycles(bytes int64) eventq.Time {
	var c eventq.Time
	c, l.serCarry = noc.SerStep(bytes, l.effBW, l.serCarry)
	return c
}

// hopDelay is the post-serialization delay to the next stage: wire latency
// plus one router pipeline.
func (l *flink) hopDelay() eventq.Time {
	return l.latency + eventq.Time(l.net.params.RouterLatency)
}

// fpkt is one in-flight packet on a multi-hop path. last marks the
// message's final packet: FIFO links keep a message's packets in order, so
// only the final packet's last-hop arrival decides delivery.
type fpkt struct {
	msg     *noc.Message
	bytes   int64
	pathPos int
	last    bool
}

// Network is the congestion-unaware transport over a topology's physical
// links. It implements system.Network.
type Network struct {
	eng    *eventq.Engine
	topo   topology.Topology
	params config.Network
	links  []*flink
	nextID uint64

	// onSend is the injection observer (audit accounting hook).
	onSend func(*noc.Message)
	// inFlight counts injected-but-undelivered messages (Quiet).
	inFlight int

	// DeliveredMessages counts completed messages (for tests/stats).
	DeliveredMessages uint64

	// pktFree recycles fpkt objects for multi-hop paths.
	pktFree []*fpkt

	// ser memoizes whole-message single-link serialization charges (see
	// noc.SerTable).
	ser noc.SerTable
}

// New builds the analytical network for topo using the same Garnet-level
// parameters as the packet backend; only buffer capacities are ignored
// (they are infinite here).
func New(eng *eventq.Engine, topo topology.Topology, p config.Network) (*Network, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := &Network{eng: eng, topo: topo, params: p, ser: noc.NewSerTable()}
	for _, spec := range topo.Links() {
		l := &flink{spec: spec, net: n}
		switch spec.Class {
		case topology.IntraPackage:
			l.effBW = p.LocalLinkBandwidth * p.LocalLinkEfficiency
			l.latency = eventq.Time(p.LocalLinkLatency)
			l.pktSize = int64(p.LocalPacketSize)
		case topology.InterPackage:
			l.effBW = p.PackageLinkBandwidth * p.PackageLinkEfficiency
			l.latency = eventq.Time(p.PackageLinkLatency)
			l.pktSize = int64(p.PackagePacketSize)
		case topology.ScaleOutLink:
			l.effBW = p.ScaleOutLinkBandwidth * p.ScaleOutLinkEfficiency
			l.latency = eventq.Time(p.ScaleOutLinkLatency)
			l.pktSize = int64(p.ScaleOutPacketSize)
		default:
			// A link class without configured bandwidth/latency/packet-size
			// parameters would serialize at rate zero; refuse at
			// construction instead of diverging mid-simulation.
			return nil, fmt.Errorf("fastnet: link %d has class %v with no configured network parameters", spec.ID, spec.Class)
		}
		n.links = append(n.links, l)
	}
	return n, nil
}

// Backend identifies this implementation in the backend duality.
func (n *Network) Backend() config.Backend { return config.FastBackend }

// SetOnSend installs (or clears) the per-message injection observer.
func (n *Network) SetOnSend(fn func(*noc.Message)) { n.onSend = fn }

// pathPacketSize mirrors noc: the smallest packet-size class along the
// path, so chunking matches the packet backend byte-for-byte.
func (n *Network) pathPacketSize(path []topology.LinkID) int64 {
	pktSize := n.links[path[0]].pktSize
	for _, id := range path[1:] {
		if ps := n.links[id].pktSize; ps < pktSize {
			pktSize = ps
		}
	}
	return pktSize
}

// Send injects msg: the first link's serialization is charged eagerly in
// closed form, and the message either completes with a single delivery
// event (single-link path) or fans out per-packet arrival events to the
// remaining hops.
func (n *Network) Send(msg *noc.Message) {
	if len(msg.Path) == 0 {
		panic("fastnet: message with empty path")
	}
	if msg.Bytes <= 0 {
		panic(fmt.Sprintf("fastnet: message with %d bytes", msg.Bytes))
	}
	n.nextID++
	msg.ID = n.nextID
	now := n.eng.Now()
	msg.Injected = now
	if n.onSend != nil {
		n.onSend(msg)
	}
	n.inFlight++

	pktSize := n.pathPacketSize(msg.Path)
	numPkts := (msg.Bytes + pktSize - 1) / pktSize
	if maxP := int64(n.params.MaxPacketsPerMessage); maxP > 0 && numPkts > maxP {
		numPkts = maxP
		pktSize = (msg.Bytes + numPkts - 1) / numPkts
	}

	first := n.links[msg.Path[0]]
	start := now
	if first.busyUntil > start {
		start = first.busyUntil
	}
	msg.SerStart = start

	if len(msg.Path) == 1 {
		// Single-link fast path: charge all packets back-to-back with
		// noc's kernel, which memoizes the charge, and schedule one
		// delivery event at the last packet's arrival.
		v := n.ser.Charge(msg.Bytes, pktSize, numPkts, first.effBW, first.serCarry)
		first.serCarry = v.Carry
		finish := start + v.Total
		first.busyUntil = finish
		first.stats.Packets += uint64(numPkts)
		first.stats.Bytes += msg.Bytes
		first.stats.BusyCycles += v.Total
		n.eng.CallAt(finish+first.hopDelay(), fastDeliver, n, msg)
		return
	}

	// Multi-hop: charge the first link per packet (its FIFO order is the
	// injection order, so eager charging is exact) and land each packet on
	// the second hop after the wire delay. Downstream hops interleave
	// packets from different sources in arrival order, so they are driven
	// by per-packet events from here on.
	finish := start
	remaining := msg.Bytes
	hop := first.hopDelay()
	next := n.links[msg.Path[1]]
	for i := int64(0); i < numPkts; i++ {
		b := pktSize
		if b > remaining {
			b = remaining
		}
		remaining -= b
		ser := first.serCycles(b)
		finish += ser
		first.stats.Packets++
		first.stats.Bytes += b
		first.stats.BusyCycles += ser
		n.hopAt(finish+hop, finish, finish-ser, fastArrive, next, n.allocPacket(msg, b, 1, i == numPkts-1))
	}
	first.busyUntil = finish
}

// hopAt schedules a packet's next stage under the ordering key the packet
// backend gives it: its linkArrive (or packetDelivered) event is created
// when the packet's serialization ends, by the linkSerDone event created
// when it started. Packets from different sources that reach one link in
// the same cycle then serialize there in the packet backend's order, not
// in the order their senders injected them.
func (n *Network) hopAt(at, serEnd, serStart eventq.Time, fn eventq.CallFunc, a, b any) {
	k := n.eng.EventKey()
	k.Ctime, k.Gen2 = serEnd, serStart
	n.eng.InjectAt(at, k, 0, fn, a, b)
}

// allocPacket takes an fpkt from the free list, or heap-allocates when the
// list is empty. Single-threaded per network: no locking.
func (n *Network) allocPacket(msg *noc.Message, bytes int64, pathPos int, last bool) *fpkt {
	if i := len(n.pktFree) - 1; i >= 0 {
		p := n.pktFree[i]
		n.pktFree = n.pktFree[:i]
		p.msg, p.bytes, p.pathPos, p.last = msg, bytes, pathPos, last
		return p
	}
	return &fpkt{msg: msg, bytes: bytes, pathPos: pathPos, last: last}
}

// fastArrive is the eventq.CallFunc that lands packet b on link a: the
// serialization is charged immediately (start = max(now, busyUntil) — the
// unblockable-FIFO identity), and the packet either moves to its next hop
// or, on the message's final packet at the final hop, completes delivery.
func fastArrive(a, b any) {
	l, p := a.(*flink), b.(*fpkt)
	n := l.net
	start := n.eng.Now()
	if l.busyUntil > start {
		start = l.busyUntil
	}
	ser := l.serCycles(p.bytes)
	finish := start + ser
	l.busyUntil = finish
	l.stats.Packets++
	l.stats.Bytes += p.bytes
	l.stats.BusyCycles += ser

	msg := p.msg
	if p.pathPos+1 < len(msg.Path) {
		next := n.links[msg.Path[p.pathPos+1]]
		p.pathPos++
		n.hopAt(finish+l.hopDelay(), finish, start, fastArrive, next, p)
		return
	}
	last := p.last
	p.msg = nil
	n.pktFree = append(n.pktFree, p)
	if last {
		n.hopAt(finish+l.hopDelay(), finish, start, fastDeliver, n, msg)
	}
}

// fastDeliver is the eventq.CallFunc that completes message b on network a
// when its final packet arrives at the destination endpoint.
func fastDeliver(a, b any) {
	n, msg := a.(*Network), b.(*noc.Message)
	msg.Delivered = n.eng.Now()
	n.DeliveredMessages++
	n.inFlight--
	if msg.OnDelivered != nil {
		msg.OnDelivered(msg)
	}
}

// TotalBytesByClass sums bytes carried per link class.
func (n *Network) TotalBytesByClass() (intra, inter, scaleOut int64) {
	for _, l := range n.links {
		switch l.spec.Class {
		case topology.IntraPackage:
			intra += l.stats.Bytes
		case topology.InterPackage:
			inter += l.stats.Bytes
		case topology.ScaleOutLink:
			scaleOut += l.stats.Bytes
		}
	}
	return intra, inter, scaleOut
}

// DroppedPathBytesByClass is always zero: the analytical backend never
// drops packets.
func (n *Network) DroppedPathBytesByClass() (intra, inter, scaleOut int64) { return 0, 0, 0 }

// DropStats is always zero: fault injection is packet-only.
func (n *Network) DropStats() noc.FaultStats { return noc.FaultStats{} }

// ScaleLinkBandwidth derates (factor < 1) or boosts one link's effective
// bandwidth. Must be called before traffic that should observe it.
func (n *Network) ScaleLinkBandwidth(id topology.LinkID, factor float64) {
	if factor <= 0 {
		panic(fmt.Sprintf("fastnet: bandwidth scale must be positive, got %v", factor))
	}
	n.links[id].effBW *= factor
}

// LinkStatsFor returns a copy of the counters for one link.
func (n *Network) LinkStatsFor(id topology.LinkID) noc.LinkStats { return n.links[id].stats }

// UtilizationByClass computes per-class link utilization over [0, until].
func (n *Network) UtilizationByClass(until eventq.Time) map[topology.LinkClass]noc.ClassUtilization {
	out := make(map[topology.LinkClass]noc.ClassUtilization)
	if until == 0 {
		return out
	}
	for _, l := range n.links {
		u := out[l.spec.Class]
		u.Links++
		busy := float64(l.stats.BusyCycles) / float64(until)
		u.AvgBusy += busy
		if busy > u.PeakBusy {
			u.PeakBusy = busy
		}
		out[l.spec.Class] = u
	}
	for class, u := range out {
		u.AvgBusy /= float64(u.Links)
		out[class] = u
	}
	return out
}

// Quiet reports whether no messages are in flight.
func (n *Network) Quiet() bool { return n.inFlight == 0 }

// DebugLinks snapshots every link's dynamic state. The analytical model
// holds no queues or reservations; a link is busy while its charged
// serialization timeline extends past now.
func (n *Network) DebugLinks() []noc.LinkDebugState {
	out := make([]noc.LinkDebugState, len(n.links))
	for i, l := range n.links {
		out[i] = noc.LinkDebugState{
			ID:    l.spec.ID,
			Class: l.spec.Class,
			Busy:  l.busyUntil > n.eng.Now(),
			Stats: l.stats,
		}
	}
	return out
}
