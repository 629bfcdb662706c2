package noc

// Intra-run parallel execution support (the `-intra-parallel` flag,
// internal/pdes, DESIGN.md §13). Partition rebinds every link to a shard
// engine; Send defers packetization to the owning shard under the
// sender's splice key; final-hop deliveries are buffered per shard and
// injected into the main engine at each window barrier (FlushCross).
// Everything here preserves the serial event order exactly — the
// differential suite in internal/pdes compares full runs byte-for-byte.

import (
	"fmt"

	"astrasim/internal/eventq"
)

// shard is the execution context of one partition: the engine its links
// run on, the outbox buffering deliveries bound for the main engine until
// the next window barrier (kept ascending by push), and the serialization
// memo of the pool worker that runs it.
type shard struct {
	eng  *eventq.Engine
	out  []outEvent
	next int // FlushCross's read cursor into out
	ser  *SerTable
}

// outEvent is one buffered shard→main delivery: packetDelivered(msg) at
// absolute time at, ordered by the creating shard's key.
type outEvent struct {
	at  eventq.Time
	key eventq.Key
	msg *Message
}

// lessOut orders buffered deliveries as the main engine fires them: by
// time, then key. No two deliveries share a full key (components differ
// across shards, seq within one), so the order is total.
func lessOut(a, b *outEvent) bool {
	return a.at < b.at || (a.at == b.at && a.key.Before(&b.key))
}

// push buffers one delivery in the shard's outbox, keeping the outbox
// ascending by lessOut. It runs on the shard's own pool worker, so the
// ordering work is spread across workers rather than left to the flush.
// Deliveries are created nearly in firing order, so the walk back from
// the tail is empty or a step or two.
func (sh *shard) push(e outEvent) {
	out := append(sh.out, e)
	i := len(out) - 1
	for ; i > 0 && lessOut(&e, &out[i-1]); i-- {
		out[i] = out[i-1]
	}
	out[i] = e
	sh.out = out
}

// Partition rebinds the network's links to shard engines for intra-run
// parallel execution: the link plan's component c runs on
// shards[(c-1) % len(shards)]. workers is the pool width of the pdes
// runner driving the shards, which runs shard i on worker i % workers in
// every window: shards on one worker never run at the same time, so they
// share one serialization memo. Partition must be called once, before
// any traffic is injected, and refuses a network without a link plan.
func (n *Network) Partition(shards []*eventq.Engine, workers int) error {
	if _, _, err := n.Plan(); err != nil {
		return err
	}
	if n.shards != nil {
		return fmt.Errorf("noc: network is already partitioned")
	}
	if len(shards) == 0 {
		return fmt.Errorf("noc: partition needs at least one shard engine")
	}
	if n.nextID != 0 {
		return fmt.Errorf("noc: cannot partition after traffic was injected")
	}
	if workers < 1 {
		return fmt.Errorf("noc: partition needs at least one worker")
	}
	tables := make([]SerTable, min(workers, len(shards)))
	for i := range tables {
		tables[i] = newTrainTable()
	}
	n.shards = make([]*shard, len(shards))
	n.crossTree = make([]int32, 2*len(shards))
	for i, eng := range shards {
		n.shards[i] = &shard{eng: eng, ser: &tables[i%len(tables)]}
	}
	for _, l := range n.links {
		sh := n.shards[int(l.comp-1)%len(n.shards)]
		l.sh = sh
		l.eng = sh.eng
		l.ser = sh.ser
	}
	return nil
}

// Partitioned reports whether the network runs under intra-run
// parallelism.
func (n *Network) Partitioned() bool { return n.shards != nil }

// SetFlowCollapse toggles packet trains (on by default). Turning them off
// forces every packet through the event loop — the A/B lever the
// differential suites use to attribute any divergence.
func (n *Network) SetFlowCollapse(on bool) { n.noTrains = !on }

// FlushCross injects every buffered shard→main delivery into the main
// engine. The pdes runner calls it at each window barrier, when it owns
// all engines exclusively. Each event's final position comes from its
// explicit key, so the main engine fires deliveries in exactly the serial
// order. They are injected in that order, too: same-cycle deliveries from
// different shards interleave by component, and injecting them shard by
// shard would make each one walk back through its cycle's bucket.
//
// Every outbox is already ascending (push), so the flush merges them
// (mergeCross) instead of sorting.
func (n *Network) FlushCross() {
	n.mergeCross(func(e *outEvent) {
		n.eng.InjectAt(e.at, e.key, 0, packetDelivered, e.msg)
	})
}

// mergeCross passes every buffered delivery to emit in ascending lessOut
// order and empties the outboxes. It merges the ascending outboxes in
// place with a tournament tree over the shards: log2(shards) comparisons
// per delivery and no copies. The tree is reused, so a merge allocates
// nothing.
func (n *Network) mergeCross(emit func(*outEvent)) {
	k := len(n.shards)
	loser, win := n.crossTree[:k], n.crossTree[k:]
	// Play the tournament bottom-up. Node p's children are 2p and 2p+1;
	// node k+i is shard i's leaf. win[p] is the winner below node p, and
	// loser[p] the shard that lost the match at p.
	sub := func(c int) int32 {
		if c >= k {
			return int32(c - k)
		}
		return win[c]
	}
	w := int32(0)
	for p := k - 1; p >= 1; p-- {
		a, b := sub(2*p), sub(2*p+1)
		if n.crossBefore(b, a) {
			a, b = b, a
		}
		win[p], loser[p] = a, b
		w = a
	}
	for {
		sh := n.shards[w]
		if sh.next == len(sh.out) {
			break // a drained outbox wins only when all are drained
		}
		emit(&sh.out[sh.next])
		sh.next++
		// Replay the winner's path: its next delivery meets the shards
		// it beat on the way up.
		for p := (int(w) + k) / 2; p >= 1; p /= 2 {
			if n.crossBefore(loser[p], w) {
				loser[p], w = w, loser[p]
			}
		}
	}
	for _, sh := range n.shards {
		clear(sh.out)
		sh.out, sh.next = sh.out[:0], 0
	}
}

// crossBefore reports whether shard i's next buffered delivery fires
// before shard j's during mergeCross. A drained outbox sorts last.
func (n *Network) crossBefore(i, j int32) bool {
	a, b := n.shards[i], n.shards[j]
	if b.next == len(b.out) {
		return a.next < len(a.out)
	}
	return a.next < len(a.out) && lessOut(&a.out[a.next], &b.out[b.next])
}

// shardInject is the eventq.CallFunc a deferred Send lands on: it runs on
// the first link's shard engine, under the sender's splice key, and
// performs the injection Send would have done inline on the serial
// engine. It reassigns the firing component to the link's, so every
// event the message generates carries the right component in its
// ordering key.
func shardInject(a any) {
	msg := a.(*Message)
	n := msg.net
	first := n.links[msg.Path[0]]
	fk := first.eng.FiringKey()
	first.eng.SetFiringComp(first.comp)
	n.inject(first, msg, fk)
}
