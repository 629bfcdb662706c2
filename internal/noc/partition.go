package noc

// Intra-run parallel execution support (the `-intra-parallel` flag,
// internal/pdes, DESIGN.md §13). Partition rebinds every link to a shard
// engine; Send defers packetization to the owning shard under the
// sender's splice key; final-hop deliveries are buffered per shard and
// injected into the main engine at each window barrier (FlushCross).
// Everything here preserves the serial event order exactly — the
// differential suite in internal/pdes compares full runs byte-for-byte.

import (
	"cmp"
	"fmt"
	"slices"

	"astrasim/internal/eventq"
)

// shard is the execution context of one partition: the engine its links
// run on, a private packet free list (so the hot path stays lock-free
// and allocation-free per shard), the outbox buffering deliveries bound
// for the main engine until the next window barrier, and the
// serialization memo of the pool worker that runs it.
type shard struct {
	eng  *eventq.Engine
	free []*packet
	out  []outEvent
	ser  *SerTable
}

// outEvent is one buffered shard→main delivery: packetDelivered(msg) at
// absolute time at, ordered by the creating shard's key.
type outEvent struct {
	at  eventq.Time
	key eventq.Key
	msg *Message
}

// Partition rebinds the network's links to shard engines for intra-run
// parallel execution: comp assigns every link a 1-based component
// (component c runs on shards[(c-1) % len(shards)]), noTransit flags
// links that never appear at path position >= 1 (licensing packet
// trains). Both slices come from a pdes.Plan. workers is the pool width
// of the pdes.Runner driving the shards, which runs shard i on worker
// i % workers in every window: shards on one worker never run at the
// same time, so they share one serialization memo. Partition must be
// called once, before any traffic is injected.
func (n *Network) Partition(shards []*eventq.Engine, workers int, comp []int32, noTransit []bool) error {
	if n.shards != nil {
		return fmt.Errorf("noc: network is already partitioned")
	}
	if len(shards) == 0 {
		return fmt.Errorf("noc: partition needs at least one shard engine")
	}
	if len(comp) != len(n.links) || len(noTransit) != len(n.links) {
		return fmt.Errorf("noc: partition plan covers %d links, network has %d", len(comp), len(n.links))
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
	for i, eng := range shards {
		n.shards[i] = &shard{eng: eng, ser: &tables[i%len(tables)]}
	}
	for i, l := range n.links {
		c := comp[i]
		if c < 1 {
			return fmt.Errorf("noc: link %d has invalid component %d (components are 1-based)", i, c)
		}
		sh := n.shards[int(c-1)%len(n.shards)]
		l.sh = sh
		l.eng = sh.eng
		l.comp = uint32(c)
		l.noTransit = noTransit[i]
		l.pool = &sh.free
		l.ser = sh.ser
	}
	return nil
}

// Partitioned reports whether the network runs under intra-run
// parallelism.
func (n *Network) Partitioned() bool { return n.shards != nil }

// AssignOrderingComps stamps the partition plan's component labels and
// no-transit flags onto the links of a SERIAL network without rebinding
// anything to shard engines. Serial and partitioned runs then tie-break
// simultaneous events with the very same six-field key — component before
// creation sequence — which is what makes -intra-parallel byte-identical
// to the serial engine on every topology, including ones where events
// from different components collide on the same (time, ctime, gen2)
// prefix; and both run packet trains on the same links. Must be called
// before any traffic is injected.
func (n *Network) AssignOrderingComps(comp []int32, noTransit []bool) error {
	if n.shards != nil {
		return fmt.Errorf("noc: network is already partitioned")
	}
	if len(comp) != len(n.links) || len(noTransit) != len(n.links) {
		return fmt.Errorf("noc: partition plan covers %d links, network has %d", len(comp), len(n.links))
	}
	if n.nextID != 0 {
		return fmt.Errorf("noc: cannot assign components after traffic was injected")
	}
	for i, l := range n.links {
		c := comp[i]
		if c < 1 {
			return fmt.Errorf("noc: link %d has invalid component %d (components are 1-based)", i, c)
		}
		l.comp = uint32(c)
		l.noTransit = noTransit[i]
	}
	return nil
}

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
func (n *Network) FlushCross() {
	out := n.crossOut[:0]
	for _, sh := range n.shards {
		out = append(out, sh.out...)
		clear(sh.out)
		sh.out = sh.out[:0]
	}
	slices.SortFunc(out, compareOut)
	for i := range out {
		n.eng.InjectAt(out[i].at, out[i].key, 0, packetDelivered, n, out[i].msg)
	}
	clear(out)
	n.crossOut = out[:0]
}

// compareOut orders buffered deliveries as the main engine fires them:
// by time, then key.
func compareOut(a, b outEvent) int {
	switch {
	case a.at != b.at:
		return cmp.Compare(a.at, b.at)
	case a.key.Ctime != b.key.Ctime:
		return cmp.Compare(a.key.Ctime, b.key.Ctime)
	case a.key.Gen2 != b.key.Gen2:
		return cmp.Compare(a.key.Gen2, b.key.Gen2)
	case a.key.Comp != b.key.Comp:
		return cmp.Compare(a.key.Comp, b.key.Comp)
	}
	return cmp.Compare(a.key.Seq, b.key.Seq)
}

// shardInject is the eventq.CallFunc a deferred Send lands on: it runs on
// the first link's shard engine, under the sender's splice key, and
// performs the injection Send would have done inline on the serial
// engine. It reassigns the firing component to the link's, so every
// event the message generates carries the right component in its
// ordering key.
func shardInject(a, b any) {
	n, msg := a.(*Network), b.(*Message)
	first := n.links[msg.Path[0]]
	fk := first.eng.FiringKey()
	first.eng.SetFiringComp(first.comp)
	n.inject(first, msg, fk)
}
