package noc

// The serialization kernel: the one definition of how a link's
// serializer turns bytes into cycles, shared by both network models.
// SerStep is the single step; serCursor replays a message's packets back
// to back, one step each; SerTable.Charge charges a whole message with
// the cursor, memoizing long trains. The packet model calls Charge for
// packet trains and SerStep for real packets; the unbounded model calls
// the same two for its single-link sends and its per-hop packets, which
// is why the two models agree bit for bit. The lazy paths of both (a
// train's transit replay, a hop run's records) step the same cursor.

import (
	"math"

	"astrasim/internal/eventq"
)

// SerStep is one step of the serialization carry chain: the whole cycles
// a packet of bytes takes at bw after the carried remainder, and the new
// remainder. A packet takes at least one cycle; the clamp drops the
// remainder.
func SerStep(bytes int64, bw, carry float64) (eventq.Time, float64) {
	return serAdvance(float64(bytes)/bw, carry)
}

// serAdvance is SerStep with the packet's exact cycle count q =
// bytes/bw already divided out, so a loop over equal packets divides
// once: the sum is then the same float operation SerStep performs.
func serAdvance(q, carry float64) (eventq.Time, float64) {
	exact := q + carry
	c := eventq.Time(exact)
	if c == 0 {
		return 1, 0
	}
	return c, exact - float64(c)
}

// SerCharge is what charging a message's packets back to back leaves
// behind. With T[k] the end of packet k relative to the first packet's
// start (T[0] = 0), it holds the last three packet boundaries, enough to
// rebuild a train segment's final packet and its event keys.
type SerCharge struct {
	// Prev2, Prev and Total are T[n-2], T[n-1] and T[n]; Prev2 is 0 when
	// n = 1.
	Prev2, Prev, Total eventq.Time
	// Carry is the serializer's remainder after the last packet.
	Carry float64
}

// trainMemoMinPackets is the shortest packet train the packet backend
// memoizes. Its workloads include many short messages of many sizes
// (compiled training graphs), whose charges rarely repeat: memoizing them
// fills the table with one entry per carry and costs more than the loop.
// A hit saves the loop's one carry step per packet, so long trains pay
// for the lookup even at a low hit rate.
const trainMemoMinPackets = 16

// SerTableMaxEntries bounds a SerTable. Symmetric workloads revisit a
// small carry orbit, so in practice the table stays tiny; the bound only
// bites on adversarial traffic (e.g. thousands of distinct message sizes
// in one run), where it caps memory in long-lived processes. When full,
// the whole table is dropped and rebuilt: a deterministic policy, and
// safe because a miss just re-runs the loop, whose output is
// bit-identical to the memoized value.
const SerTableMaxEntries = 1 << 16

// serTableMinSlots is the slot count of a fresh table (a power of two).
const serTableMinSlots = 64

// serKey identifies one whole-message charge. The carry loop reads
// nothing but the bandwidth, the carry, and the packet schedule (bytes,
// packet size, packet count), so its output is a pure function of these.
// Floats are keyed by their bit patterns: two carries that differ in the
// last ulp are different keys, which keeps memoized results bit-identical
// to the loop. The packet count is part of the key because the
// MaxPacketsPerMessage cap can pad a message with empty packets, so bytes
// and packet size alone do not determine it. Packet size and count share
// a word, which keeps the key at four words; Charge falls back to the
// loop when either does not fit in 32 bits.
type serKey struct {
	bw    uint64 // math.Float64bits of the bandwidth
	carry uint64 // math.Float64bits of the carry before the charge
	bytes int64  // message bytes; 0 marks an empty slot
	pn    uint64 // packet size << 32 | packet count
}

// serEntry is one table slot.
type serEntry struct {
	key serKey
	val SerCharge
}

// SerTable memoizes SerCharge results: an open-addressed, linear-probed
// hash table over serKey. Carry registers walk a deterministic orbit, and
// symmetric topologies run the same orbit on every link, so after the
// first link pays the loop for each orbit position, every other link's
// charge is an O(1) hit. A key's home slot is taken from the top bits of
// a multiplicative hash, and the table doubles before it is half full, so
// probe runs stay short and a lookup never wraps a full table. It is not
// a Go map because the lookup runs on every long single-link send.
//
// Build one with NewSerTable. A SerTable is not safe for concurrent use:
// a serial network owns one, and a partitioned network gives each pdes
// pool worker its own (see Partition).
type SerTable struct {
	slots []serEntry
	// shift maps a hash to a home slot: hash >> shift < len(slots).
	shift uint
	// count is the number of occupied slots.
	count int
	// minPackets is the shortest charge memoized; shorter ones run the
	// loop.
	minPackets int64
	// lastKey and lastVal are the most recent charge. The nodes of a
	// symmetric collective charge the same key one after another (their
	// links walk one carry orbit in step), so Charge checks it before it
	// hashes.
	lastKey serKey
	lastVal SerCharge
	// last is the plan memo: the most recent packet plan (see plan).
	last planMemo
}

// planMemo is one packet plan: the size and count of a message's packets
// (pktSize, numPkts) given its bytes, the smallest class packet size
// along its path (pathPkt) and the packet cap (maxPkts, 0 for none).
type planMemo struct {
	bytes, pathPkt, maxPkts int64
	pktSize, numPkts        int64
}

// plan returns the packet size and count of a bytes-byte message whose
// path's smallest class packet size is pathPkt, capped at maxPkts packets
// (0: no cap): ceil(bytes/pathPkt) packets of pathPkt bytes, or maxPkts
// packets of ceil(bytes/maxPkts) bytes when that is more than the cap. It
// keeps its last answer, because a chunk step sends equal messages from
// every node, so a plan mostly repeats the previous one and costs no
// division. Like the rest of the table, the memo has one owner: a serial
// network's engine, or one pool worker of a partitioned network. It is
// not kept on the Network, whose links packetize on several pool workers
// at once when it is partitioned.
func (t *SerTable) plan(bytes, pathPkt, maxPkts int64) (pktSize, numPkts int64) {
	if m := &t.last; m.bytes == bytes && m.pathPkt == pathPkt && m.maxPkts == maxPkts {
		return m.pktSize, m.numPkts
	}
	pktSize, numPkts = pathPkt, (bytes+pathPkt-1)/pathPkt
	if maxPkts > 0 && numPkts > maxPkts {
		numPkts = maxPkts
		pktSize = (bytes + numPkts - 1) / numPkts
	}
	t.last = planMemo{bytes: bytes, pathPkt: pathPkt, maxPkts: maxPkts, pktSize: pktSize, numPkts: numPkts}
	return pktSize, numPkts
}

// NewSerTable returns an empty table that memoizes every charge.
func NewSerTable() SerTable {
	return SerTable{slots: make([]serEntry, serTableMinSlots), shift: 64 - 6}
}

// newTrainTable returns the packet backend's memo, which leaves trains
// shorter than trainMemoMinPackets to the loop.
func newTrainTable() SerTable {
	t := NewSerTable()
	t.minPackets = trainMemoMinPackets
	return t
}

// Len reports the number of memoized charges.
func (t *SerTable) Len() int { return t.count }

// Charge charges n packets of a bytes-byte message, pkt bytes per packet,
// back to back on a serializer of bandwidth bw holding carry. Packet k
// carries min(pkt, what is left) bytes, so a capped message may end in
// empty packets, each taking the one-cycle minimum. bytes must be
// positive. The result equals n SerStep calls bit for bit.
func (t *SerTable) Charge(bytes, pkt, n int64, bw, carry float64) SerCharge {
	if n < t.minPackets || (pkt|n)>>32 != 0 {
		return serLoop(bytes, pkt, n, bw, carry)
	}
	k := serKey{bw: math.Float64bits(bw), carry: math.Float64bits(carry), bytes: bytes, pn: uint64(pkt)<<32 | uint64(n)}
	if k == t.lastKey {
		return t.lastVal
	}
	var v SerCharge
	if e := t.find(k); e.key.bytes != 0 {
		v = e.val
	} else {
		v = serLoop(bytes, pkt, n, bw, carry)
		t.put(k, v)
	}
	t.lastKey, t.lastVal = k, v
	return v
}

// serLoop is Charge without the memo: one cursor steps the packets.
func serLoop(bytes, pkt, n int64, bw, carry float64) SerCharge {
	var t2, t1, t eventq.Time
	c := newSerCursor(bytes, pkt, bw, carry)
	for range n {
		var d eventq.Time
		c, d, _ = c.step(bw)
		t2, t1, t = t1, t, t+d
	}
	return SerCharge{Prev2: t2, Prev: t1, Total: t, Carry: c.carry}
}

// serCursor replays a message's carry chain one packet at a time. It is
// the one per-packet replay: serLoop charges with it, and the lazy send
// paths rebuild their virtual packets (train segments) and arrival
// records (hop runs) with it, so all agree with Charge bit for bit. It
// is four words, stepped by value, so a loop keeps it in registers; the
// bandwidth it was started at rides beside it for the same reason.
type serCursor struct {
	rest, pkt int64 // bytes not yet stepped; packet size
	// full is a full packet's exact cycle count pkt/bw, divided once per
	// cursor: the same float operation SerStep performs per packet.
	full  float64
	carry float64
}

// newSerCursor starts the replay of a bytes-byte message in pkt-byte
// packets at bw, from carry.
func newSerCursor(bytes, pkt int64, bw, carry float64) serCursor {
	return serCursor{rest: bytes, pkt: pkt, full: float64(pkt) / bw, carry: carry}
}

// step serializes the next packet, min(pkt, what is left) bytes, at bw,
// the rate the cursor was started at, and returns the advanced cursor
// and the packet's cycles and bytes: a full packet's with the quotient
// divided once, a partial or empty one's with SerStep.
func (c serCursor) step(bw float64) (serCursor, eventq.Time, int64) {
	b, q := c.pkt, c.full
	if c.rest < b {
		b, q = c.rest, float64(c.rest)/bw
	}
	c.rest -= b
	var d eventq.Time
	d, c.carry = serAdvance(q, c.carry)
	return c, d, b
}

// home returns k's home slot.
func (t *SerTable) home(k serKey) uint64 {
	h := k.bw ^ k.carry*0x9e3779b97f4a7c15
	h ^= uint64(k.bytes) * 0xc2b2ae3d27d4eb4f
	h ^= k.pn * 0x165667b19e3779f9
	return (h * 0x9e3779b97f4a7c15) >> t.shift
}

// find returns k's slot, or the empty slot ending its probe run when k
// is absent.
func (t *SerTable) find(k serKey) *serEntry {
	mask := uint64(len(t.slots) - 1)
	for i := t.home(k); ; i = (i + 1) & mask {
		if e := &t.slots[i]; e.key == k || e.key.bytes == 0 {
			return e
		}
	}
}

// put memoizes k, which must not be present. A full table (count at
// SerTableMaxEntries) first gets fresh minimum-size slots.
func (t *SerTable) put(k serKey, v SerCharge) {
	switch {
	case t.count >= SerTableMaxEntries:
		t.slots, t.shift, t.count = make([]serEntry, serTableMinSlots), 64-6, 0
	case 2*(t.count+1) > len(t.slots):
		old := t.slots
		t.slots = make([]serEntry, 2*len(old))
		t.shift--
		for _, e := range old {
			if e.key.bytes != 0 {
				t.insert(e)
			}
		}
	}
	t.insert(serEntry{key: k, val: v})
	t.count++
}

// insert places e in the first empty slot at or after its home.
func (t *SerTable) insert(e serEntry) {
	mask := uint64(len(t.slots) - 1)
	i := t.home(e.key)
	for t.slots[i].key.bytes != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = e
}
