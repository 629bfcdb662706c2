package noc

// Packet trains: closed-form serialization of single-link messages on
// source-fed links, in serial and partitioned runs alike.
//
// A link the link plan flags no-transit (plan.go) is fed by no
// collective lane from upstream. A single-link message injected onto such
// a link, while no real packet is queued there, joins the link's train:
// its packets serialize in closed form behind the train's earlier
// messages, starting at max(now, train end), with the exact per-packet
// carry chain and one-cycle clamp. The message then costs one event, a
// delivery under the key its last packet's packetDelivered would carry,
// instead of two events per packet. Intermediate deliveries only
// decrement packetsLeft, so they are never materialized.
//
// Each message becomes a train segment, which retires when its last
// packet's linkSerDone would fire. The segment reserves that event's key
// when it is appended but schedules no event: it is retired lazily, by
// the next train operation or link-state read that sees its key as
// already fired (retire). Its segment-done event is scheduled, under the
// reserved key, only when something must react at that moment: a real
// packet queued behind the train, which the serializer restarts for, or
// an upstream link blocked on the train's buffer (armRelease).
//
// Point-to-point sends on a serial run may still route multi-hop through
// a train link. The per-packet model stays observable there: the train's
// unserialized (virtual) packets count toward the buffer and PeakQueue,
// an upstream link blocked on the train is released at the next virtual
// packet's end under that packet's linkSerDone key, and real packets
// queue behind the train and start under its last packet's key.

import (
	"math"

	"astrasim/internal/eventq"
	"astrasim/internal/fifo"
)

// segment is one message of a train.
type segment struct {
	bytes   int64
	pktSize int64
	numPkts int64
	bw      float64 // effective bandwidth the segment was charged at
	carry0  float64 // serCarry when its first packet started
	start   eventq.Time
	// gen0 is the gen2 of the first packet's linkSerDone key: the creation
	// cycle of the event that started it.
	gen0 eventq.Time
	end  eventq.Time // when the final packet ends
	// done is the segment-done key, reserved at append time: the final
	// packet's linkSerDone key, (start, gen, link comp, seq).
	done eventq.Key
}

// last is the segment's final packet.
func (s *segment) last() vpkt { return vpkt{start: s.done.Ctime, end: s.end, gen: s.done.Gen2} }

// vpkt is one virtual packet: its serialization interval and the gen2 of
// its linkSerDone key, which is (end, start, gen, link comp).
type vpkt struct{ start, end, gen eventq.Time }

// then is the packet that follows p back to back and takes d cycles: it
// starts where p ends, and its linkSerDone is created by p's, which was
// created when p started.
func (p vpkt) then(d eventq.Time) vpkt { return vpkt{start: p.end, end: p.end + d, gen: p.start} }

// replay starts the replay of s's packets: the carry-chain cursor, and a
// seed packet that ends where the first one starts and started at gen0,
// so the first step's then yields the first packet.
func (s *segment) replay() (serCursor, vpkt) {
	return newSerCursor(s.bytes, s.pktSize, s.bw, s.carry0), vpkt{start: s.gen0, end: s.start}
}

// train is a link's FIFO of live segments.
type train struct {
	// segs holds the live segments. A link under steady load may never
	// empty its train, and the queue reclaims its dead prefix anyway.
	segs fifo.Queue[segment]
	pkts int // virtual packets in the live segments
	// done counts head-segment packets retired by a trainRelease event.
	done int64
	// relPkt is the head-segment packet an armed trainRelease retires.
	relPkt   int64
	relArmed bool
	// headArmed marks the head segment's segment-done event as scheduled
	// by armRelease.
	headArmed bool
}

// canTrain reports whether msg can join first's train: a single-link
// message onto a fault-free, no-transit link with no real packet queued.
func (l *link) canTrain(msg *Message) bool {
	return !l.net.noTrains && len(msg.Path) == 1 && l.noTransit && l.fault == nil && l.queue.Len() == 0
}

// key labels an event this link creates on behalf of a virtual packet:
// created at ctime by the linkSerDone created at gen2.
func (l *link) key(ctime, gen2 eventq.Time) eventq.Key {
	return l.eng.KeysFrom(ctime, gen2, l.comp, 1)
}

// appendTrain serializes msg in closed form at the back of l's train. fk
// is the injecting event's key.
func (l *link) appendTrain(msg *Message, fk eventq.Key) {
	l.retire(fk)
	t := &l.train
	pktSize, numPkts := l.net.packetPlan(msg, &l.wire, l.ser)
	bw, carry0, start, gen0 := l.effBW, l.serCarry, l.eng.Now(), fk.Ctime
	// The per-packet model queues the whole message at once, behind the
	// train's unserialized packets; its first packet starts when the
	// previous one's linkSerDone fires.
	queued := int(numPkts)
	if t.pkts > 0 {
		prev := t.segs.Back()
		start, gen0 = prev.end, prev.last().start
		if t.pkts+queued > l.stats.PeakQueue {
			queued += l.trainLeft(fk)
		}
	}
	l.stats.PeakQueue = max(l.stats.PeakQueue, queued)

	r := l.ser.Charge(msg.Bytes, pktSize, numPkts, bw, carry0)
	last := vpkt{start: start + r.Prev, end: start + r.Total, gen: gen0}
	if numPkts > 1 {
		last.gen = start + r.Prev2
	}
	l.serCarry = r.Carry
	msg.started, msg.SerStart, msg.packetsLeft = true, start, 1

	dk := l.key(last.end, last.start)
	if at := last.end + l.hopDelay(); l.sh != nil {
		l.sh.push(outEvent{at: at, key: dk, msg: msg})
	} else {
		l.eng.InjectAt(at, dk, 0, packetDelivered, msg)
	}
	// The segment is written in place at the train's tail, field by
	// field: a segment value built first would be copied on the way in.
	s := t.segs.PushZero()
	s.bytes, s.pktSize, s.numPkts, s.bw, s.carry0 = msg.Bytes, pktSize, numPkts, bw, carry0
	s.start, s.gen0, s.end = start, gen0, last.end
	// Reserve the segment-done key in creation order, so every other
	// event's key is as if the event were scheduled now.
	s.done = l.key(last.start, last.gen)
	t.pkts += int(numPkts)
	l.busy = true
	l.armRelease(fk)
}

// fired reports whether virtual packet p's linkSerDone has fired by the
// time the event keyed fk runs. A virtual packet has no seq: on a full
// (ctime, gen2, comp) tie the firing event is taken to come first, as a
// handler's earlier-created events do.
func (l *link) fired(p vpkt, fk *eventq.Key) bool {
	if now := l.eng.Now(); p.end != now {
		return p.end < now
	}
	k := eventq.Key{Ctime: p.start, Gen2: p.gen, Comp: l.comp, Seq: math.MaxUint64}
	return k.Before(fk)
}

// headLive returns the index and replay of the head segment's first
// packet whose linkSerDone has not fired as seen from fk. The last packet
// is live until its segment retires.
func (l *link) headLive(fk *eventq.Key) (int64, vpkt) {
	t := &l.train
	s := t.segs.Front()
	c, p := s.replay()
	for k := int64(0); ; k++ {
		var d eventq.Time
		c, d, _ = c.step(s.bw)
		if p = p.then(d); k == s.numPkts-1 || (k >= t.done && !l.fired(p, fk)) {
			return k, p
		}
	}
}

// trainLeft counts the train's virtual packets still queued or
// serializing as seen from fk. Only the head segment can have started.
func (l *link) trainLeft(fk eventq.Key) int {
	l.retire(fk)
	t := &l.train
	if t.pkts == 0 {
		return 0
	}
	left := t.pkts
	if t.segs.Front().start < l.eng.Now() {
		k, _ := l.headLive(&fk)
		left -= int(k)
	}
	return left
}

// armRelease schedules a trainRelease at the next virtual packet's end
// when upstream links wait on l's buffer. For the head segment's last
// packet it schedules the segment's segment-done event instead, which
// releases waiters as it retires the segment.
func (l *link) armRelease(fk eventq.Key) {
	t := &l.train
	if t.relArmed || l.waiters.Len() == 0 {
		return
	}
	if l.retire(fk); t.pkts == 0 {
		return
	}
	k, p := l.headLive(&fk)
	if h := t.segs.Front(); k == h.numPkts-1 {
		if !l.armed(h) {
			t.headArmed = true
			l.schedule(h)
		}
		return
	}
	t.relArmed, t.relPkt = true, k
	l.eng.InjectAt(p.end, l.key(p.start, p.gen), 0, trainRelease, l)
}

// armTail schedules the tail segment's segment-done event when a real
// packet is about to queue behind a live train: that event restarts the
// serializer. Only the first such packet arms it, because no message
// joins the train while a real packet is queued.
func (l *link) armTail() {
	t := &l.train
	if t.pkts > 0 && l.queue.Len() == 0 && !l.armed(t.segs.Back()) {
		l.schedule(t.segs.Back())
	}
}

// armed reports whether segment s's segment-done event is in the queue:
// the head's once armRelease scheduled it, the tail's once a real packet
// queued behind it (armTail).
func (l *link) armed(s *segment) bool {
	t := &l.train
	return (s == t.segs.Front() && t.headArmed) || (s == t.segs.Back() && l.queue.Len() > 0)
}

// schedule injects segment s's segment-done event under its reserved key.
func (l *link) schedule(s *segment) {
	l.eng.InjectAt(s.end, s.done, 0, trainSegDone, l)
}

// retire drops the head segments whose segment-done event would have
// fired by the time the event keyed fk runs: those ending before now, and
// those ending now whose reserved key sorts no later than fk. It commits
// their counters as the event would have and, once the train is empty,
// frees the serializer flag; it never restarts the serializer, which an
// armed segment-done event does (armTail).
func (l *link) retire(fk eventq.Key) {
	t := &l.train
	now := l.eng.Now()
	for t.pkts > 0 {
		s := t.segs.Front()
		if s.end > now || (s.end == now && fk.Before(&s.done)) {
			return
		}
		l.stats.Packets += uint64(s.numPkts)
		l.stats.Bytes += s.bytes
		l.stats.BusyCycles += s.end - s.start
		t.pkts -= int(s.numPkts)
		t.segs.Pop()
		t.done = 0
		t.headArmed = false
		if t.pkts == 0 {
			l.busy = false
		}
	}
}

// trainRelease is the eventq.CallFunc standing in for an intermediate
// virtual packet's linkSerDone while upstream links wait on link a.
func trainRelease(a any) {
	l := a.(*link)
	t := &l.train
	t.relArmed = false
	t.done = t.relPkt + 1
	l.releaseWaiters()
	l.armRelease(l.eng.FiringKey())
}

// trainSegDone is the eventq.CallFunc that fires at an armed segment's
// last packet's end, under its reserved key. It retires the segment and
// the unarmed ones ahead of it and, once the train is empty, restarts the
// serializer for the real packets queued behind it; then it releases
// waiting upstream links.
func trainSegDone(a any) {
	l := a.(*link)
	fk := l.eng.FiringKey()
	l.retire(fk)
	if l.train.pkts == 0 {
		l.kick()
	}
	l.releaseWaiters()
	l.armRelease(fk)
}
