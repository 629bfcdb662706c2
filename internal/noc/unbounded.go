package noc

// The unbounded-buffer send path (NewFast, config.FastBackend): the
// congestion-unaware half of the backend duality, standing in for the
// original ASTRA-SIM's analytical network binary the way the packet model
// stands in for its Garnet binary.
//
// The model is the oracle's alpha-beta recurrence promoted to a live
// transport: every link is a FIFO serializer with the packet model's exact
// rate arithmetic (bandwidth x efficiency with the sub-cycle carry, the
// minimum-one-cycle clamp, per-class packetization and the
// MaxPacketsPerMessage cap) and the packet model's hop delay (wire latency
// plus one router pipeline), but with unlimited input buffers, so no
// backpressure ever stalls a serializer. Removing buffer limits is the
// entire semantic difference from the packet model: on any run where the
// packet model's buffers never fill (the oracle's uncongested validity
// domain, and in practice every paper-configuration run; Table IV buffers
// hold thousands of packets), the two produce identical timestamps,
// because a FIFO serializer that is never blocked has a timeline fully
// determined by its arrival order.
//
// That determinism is what makes the model fast. A packet entering an
// unblockable FIFO link can be charged its serialization interval the
// moment it arrives: start = max(now, busyUntil), advancing the same carry
// the packet model would. So a message over a single-link path (the
// dominant case: every torus ring hop) costs one delivery event instead of
// ~3 queued events per packet, and its whole charge is one call to the
// serialization kernel (SerTable.Charge), the one the packet model's
// trains use. The network's memo keeps every charge: it is a pure function
// of the link's bandwidth and carry bits plus the packet schedule, and
// symmetric topologies replay one link's carry orbit on every link,
// collapsing the steady-state cost to O(1) per message.
//
// Multi-hop paths (switch and scale-out fabrics) keep one arrival event
// per packet per downstream hop, because packets from different sources
// interleave there in arrival order; the serialization at each hop is
// still charged eagerly, one SerStep per packet. Each arrival event
// carries the ordering key the packet model's would (created when the
// packet's upstream serialization ends), so same-cycle arrivals from
// different sources serialize in the same order on both models.
//
// The unbounded model keeps only a wire per link, in one flat array, and
// none of the packet model's queues, trains or shards: its hot loop walks
// far less memory per link. Fault injection is packet-only
// (SetLinkFaults returns an error): congestion-unaware timing under loss
// is not meaningful.

import "astrasim/internal/eventq"

// sendUnbounded injects msg on an unbounded network: the first link's
// serialization is charged eagerly in closed form, and the message either
// completes with a single delivery event (single-link path) or fans out
// per-packet arrival events to the remaining hops.
func (n *Network) sendUnbounded(msg *Message) {
	n.inFlight++
	pktSize, numPkts := n.packetPlan(msg)
	first := n.wires[msg.Path[0]]
	start := max(n.eng.Now(), first.busyUntil)
	msg.SerStart = start

	if len(msg.Path) == 1 {
		// Single-link fast path: charge all packets back to back with the
		// kernel, which memoizes the charge, and schedule one delivery
		// event at the last packet's arrival.
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
	next := n.wires[msg.Path[1]]
	msg.packetsLeft = int(numPkts)
	for range numPkts {
		b := min(pktSize, remaining)
		remaining -= b
		ser := first.charge(b)
		finish += ser
		n.hopAt(finish+hop, finish, finish-ser, fastArrive, next, n.allocPacket(&n.pktFree, msg, b, 1))
	}
	first.busyUntil = finish
}

// charge serializes one packet on w's never-blocked FIFO with the
// kernel's step, so both models agree bit for bit, and counts it.
func (w *wire) charge(bytes int64) eventq.Time {
	var ser eventq.Time
	ser, w.serCarry = SerStep(bytes, w.effBW, w.serCarry)
	w.stats.Packets++
	w.stats.Bytes += bytes
	w.stats.BusyCycles += ser
	return ser
}

// hopAt schedules a packet's next stage under the ordering key the packet
// model gives it: its linkArrive (or packetDelivered) event is created
// when the packet's serialization ends, by the linkSerDone event created
// when it started. Packets from different sources that reach one link in
// the same cycle then serialize there in the packet model's order, not in
// the order their senders injected them.
func (n *Network) hopAt(at, serEnd, serStart eventq.Time, fn eventq.CallFunc, a, b any) {
	k := n.eng.EventKey()
	k.Ctime, k.Gen2 = serEnd, serStart
	n.eng.InjectAt(at, k, 0, fn, a, b)
}

// fastArrive is the eventq.CallFunc that lands packet b on wire a: the
// serialization is charged immediately (start = max(now, busyUntil), the
// unblockable-FIFO identity), and the packet either moves to its next hop
// or, on the message's final packet at the final hop, completes delivery.
// Every hop serializes a message's packets in order, each at least one
// cycle after the previous, so the final hop's last arrival is the final
// packet's. With free-list poisoning on (the audit layer sets it on both
// models), a recycled packet arriving here panics.
func fastArrive(a, b any) {
	w, p := a.(*wire), b.(*packet)
	n := w.net
	if n.poison {
		n.checkAlive(p, "fastArrive")
	}
	start := max(n.eng.Now(), w.busyUntil)
	finish := start + w.charge(p.bytes)
	w.busyUntil = finish

	msg := p.msg
	if p.pathPos+1 < len(msg.Path) {
		p.pathPos++
		n.hopAt(finish+w.hopDelay(), finish, start, fastArrive, n.wires[msg.Path[p.pathPos]], p)
		return
	}
	n.freePacket(&n.pktFree, p)
	if msg.packetsLeft--; msg.packetsLeft == 0 {
		n.hopAt(finish+w.hopDelay(), finish, start, fastDeliver, n, msg)
	}
}

// fastDeliver is the eventq.CallFunc that completes message b on network a
// when its final packet arrives at the destination endpoint.
func fastDeliver(a, b any) {
	n, msg := a.(*Network), b.(*Message)
	msg.Delivered = n.eng.Now()
	n.DeliveredMessages++
	n.inFlight--
	if msg.OnDelivered != nil {
		msg.OnDelivered(msg)
	}
}
