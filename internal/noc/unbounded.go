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
// Every message charges its first link once, in closed form, whatever
// its path length. Multi-hop paths (switch and scale-out fabrics)
// interleave packets from different sources at each downstream hop in
// arrival order, so their serialization there is charged per packet, one
// SerStep each, in the order the packet model's arrival events fire. Each arrival carries the
// ordering key the packet model's would (created when the packet's
// upstream serialization ends), so same-cycle arrivals from different
// sources serialize in the same order on both models.
//
// An arrival is an event only where its handler creates an event: a
// packet whose path continues, and a message's last packet at its final
// hop, which schedules the delivery. Every other final-hop arrival at a
// switch-fed link (a link whose source is a switch) is a record in that
// link's pending set instead, under the key its event would carry. Only
// arrivals touch a switch-fed link: switches never inject, and the first
// link of every path leaves an NPU. So charging a link's records lazily,
// in key order, just before the next arrival event there (or a read of
// the link) runs, charges them in the order their events would have
// fired, with their own arrival cycles: the results are identical and
// only the event count drops. A two-hop message into a switch-fed link
// leaves its records as one hopRun, which replays the first link's
// per-packet times with the kernel's cursor as they are charged, and a
// single event, its last packet's arrival, stands for the whole message
// at the second hop. NPU-fed links, including every first link and every
// torus link, are never recorded: sends charge them eagerly.
//
// The unbounded model keeps only a wire per link, in one flat array, plus
// the network's wire FIFOs of packets between hops, and none of the
// packet model's queues, trains or shards: its hot loop walks
// far less memory per link. Fault injection is packet-only
// (SetLinkFaults returns an error): congestion-unaware timing under loss
// is not meaningful.

import (
	"astrasim/internal/eventq"
	"astrasim/internal/topology"
)

// sendUnbounded injects msg on an unbounded network: the first link's
// serialization is charged eagerly in closed form, and the message either
// completes with a single delivery event (single-link path) or lands on
// the remaining hops as arrival events and records.
func (n *Network) sendUnbounded(msg *Message) {
	msg.packetsLeft = 1
	first := n.wires[msg.Path[0]]
	pktSize, numPkts := n.packetPlan(msg, first, &n.ser)
	start := max(n.eng.Now(), first.busyUntil)
	msg.SerStart = start
	hop := first.hopDelay()
	// Charge all packets back to back with the kernel, which memoizes the
	// charge.
	carry := first.serCarry
	v := n.ser.Charge(msg.Bytes, pktSize, numPkts, first.effBW, carry)
	first.serCarry = v.Carry
	finish := start + v.Total
	first.busyUntil = finish
	first.stats.Packets += uint64(numPkts)
	first.stats.Bytes += msg.Bytes
	first.stats.BusyCycles += v.Total
	if len(msg.Path) == 1 {
		// Single-link fast path: one delivery event at the last packet's
		// arrival.
		n.eng.CallAt(finish+hop, packetDelivered, msg)
		return
	}

	next := n.wires[msg.Path[1]]
	flight := &n.flight[first.spec.ID]
	if len(msg.Path) == 2 && n.recorded(next) {
		// Two hops into a switch-fed link: every packet but the last is a
		// record of one run, and the last arrives as an event.
		if numPkts > 1 {
			c, ser, b := newSerCursor(msg.Bytes, pktSize, first.effBW, carry).step(first.effBW)
			k := n.eng.KeysFrom(start+ser, start, n.eng.FiringComp(), uint64(numPkts-1))
			n.pushRun(next, hopRun{at: start + ser + hop, key: k, left: numPkts - 1, bytes: b,
				ser: c, bw: first.effBW, hop: hop})
		}
		last := max(0, min(pktSize, msg.Bytes-(numPkts-1)*pktSize))
		flight.Push(packet{msg: msg, bytes: last, pathPos: 1, last: true})
		n.hopAt(finish+hop, finish, start+v.Prev, fastArrive, first)
		return
	}

	// Longer paths, or two hops into an NPU-fed link: replay the charge
	// per packet with the kernel's cursor and land each packet on the
	// second hop, which continues or is not switch-fed, after the wire
	// delay.
	c := newSerCursor(msg.Bytes, pktSize, first.effBW, carry)
	end := start
	for i := range numPkts {
		var ser eventq.Time
		var b int64
		c, ser, b = c.step(first.effBW)
		end += ser
		flight.Push(packet{msg: msg, bytes: b, pathPos: 1, last: i == numPkts-1})
		n.hopAt(end+hop, end, end-ser, fastArrive, first)
	}
}

// recorded reports whether final-hop arrivals at w are records rather
// than events: w is switch-fed, and the per-packet reference mode
// (hopEvents, a test hook) is off.
func (n *Network) recorded(w *wire) bool {
	return int(w.spec.Src) >= n.npus && !n.hopEvents
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
func (n *Network) hopAt(at, serEnd, serStart eventq.Time, fn eventq.CallFunc, a any) {
	n.eng.InjectAt(at, n.eng.KeysFrom(serEnd, serStart, n.eng.FiringComp(), 1), 0, fn, a)
}

// fastArrive is the eventq.CallFunc that lands the front packet of wire
// a on the next link of its path: that link's records that sort before
// this event are charged first, then the packet's serialization (start =
// max(now, busyUntil), the unblockable-FIFO identity), and the packet
// either moves to its next hop or, as the message's final packet at the
// final hop, completes delivery. Every hop serializes a message's packets
// in order, each at least one cycle after the previous, so the final
// hop's last arrival is the final packet's.
func fastArrive(a any) {
	up := a.(*wire)
	n := up.net
	f := &n.flight[up.spec.ID]
	p := *f.Front()
	f.Pop()
	msg := p.msg
	w := n.wires[msg.Path[p.pathPos]]
	now := n.eng.Now()
	if n.pend != nil && len(n.pend[w.spec.ID]) > 0 {
		n.chargeRecords(w, now, n.eng.FiringKey())
	}
	start := max(now, w.busyUntil)
	finish := start + w.charge(p.bytes)
	w.busyUntil = finish

	if p.pathPos++; int(p.pathPos) < len(msg.Path) {
		next := n.wires[msg.Path[p.pathPos]]
		if int(p.pathPos) == len(msg.Path)-1 && !p.last && n.recorded(next) {
			k := n.eng.KeysFrom(finish, start, n.eng.FiringComp(), 1)
			n.pushRun(next, hopRun{at: finish + w.hopDelay(), key: k, left: 1, bytes: p.bytes})
			return
		}
		n.flight[w.spec.ID].Push(p)
		n.hopAt(finish+w.hopDelay(), finish, start, fastArrive, w)
		return
	}
	if p.last {
		n.hopAt(finish+w.hopDelay(), finish, start, packetDelivered, msg)
	}
}

// hopRun is a run of final-hop arrival records at one switch-fed link:
// consecutive packets of one message, each standing for the fastArrive
// event the per-packet model would fire. The head record is the next to
// charge; the ones behind it replay their upstream serialization with
// the kernel's cursor (the same steps the first link was charged with),
// so a run holds any number of packets in constant space. A one-record
// run (from a packet that crossed an event-driven hop) leaves the replay
// unset.
type hopRun struct {
	// at and key are the head record's firing cycle and ordering key: its
	// upstream serialization end and start (Ctime, Gen2) and the seq its
	// event would have taken. The run's seqs are consecutive.
	at  eventq.Time
	key eventq.Key
	// left counts the run's records, the head included.
	left int64
	// bytes is the head packet's size.
	bytes int64
	// ser and bw are the upstream serializer's replay after the head
	// packet and its rate; hop is the upstream hop delay.
	ser serCursor
	bw  float64
	hop eventq.Time
}

// next advances r to its following record: the next packet starts
// serializing upstream where the head ended, and its key takes the
// run's next reserved seq.
func (r *hopRun) next() {
	var d eventq.Time
	r.ser, d, r.bytes = r.ser.step(r.bw)
	r.key.Gen2 = r.key.Ctime
	r.key.Ctime += d
	r.key.Seq++
	r.at = r.key.Ctime + r.hop
	r.left--
}

// before reports whether r's head record fires no later than the event
// keyed (at, k).
func (r *hopRun) before(at eventq.Time, k *eventq.Key) bool {
	return r.at < at || (r.at == at && !k.Before(&r.key))
}

// pushRun adds r to w's pending records, a min-heap of runs by head
// record. A heap keeps its array, so a warm run allocates nothing.
func (n *Network) pushRun(w *wire, r hopRun) {
	h := append(n.pend[w.spec.ID], r)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !h[i].before(h[up].at, &h[up].key) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
	n.pend[w.spec.ID] = h
}

// chargeRecords charges, in key order, w's records that fire before the
// event keyed (at, k), as their fastArrive events would have: each
// starts at max(its arrival, busyUntil).
func (n *Network) chargeRecords(w *wire, at eventq.Time, k eventq.Key) {
	h := n.pend[w.spec.ID]
	for len(h) > 0 && h[0].before(at, &k) {
		r := &h[0]
		w.busyUntil = max(r.at, w.busyUntil) + w.charge(r.bytes)
		if r.left > 1 {
			r.next()
		} else {
			last := len(h) - 1
			h[0] = h[last]
			h = h[:last]
		}
		siftDown(h)
	}
	n.pend[w.spec.ID] = h
}

// siftDown restores the heap order of h after its root changed.
func siftDown(h []hopRun) {
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(h[c].at, &h[c].key) {
			c++
		}
		if !h[c].before(h[i].at, &h[i].key) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// pendingRecords counts the records still waiting at link id.
func (n *Network) pendingRecords(id topology.LinkID) int {
	var c int64
	if n.pend != nil {
		for _, r := range n.pend[id] {
			c += r.left
		}
	}
	return int(c)
}
