package noc

import (
	"testing"

	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/topology"
)

// hopFabrics are the tiny switched fabrics FuzzSwitchHopOrder draws from:
// one 4-port switch (every path NPU->switch->NPU), and 3-port switches
// joined by 2-rings, whose routes also reach a switch-fed link after a
// ring hop and leave one onto a ring hop.
var hopFabrics = [][]topology.DimSpec{
	{{Kind: topology.KindSwitch, Size: 4, Lanes: 1, Class: topology.IntraPackage}},
	{{Kind: topology.KindSwitch, Size: 3, Lanes: 1, Class: topology.IntraPackage},
		{Kind: topology.KindRing, Size: 2, Lanes: 1, Class: topology.InterPackage}},
}

// hopSend is one message of a FuzzSwitchHopOrder run.
type hopSend struct {
	at       eventq.Time
	src, dst topology.Node
	channel  int
	bytes    int64
}

// hopRunResult is what a run observed: every message's SerStart and
// Delivered, the link snapshot a read took mid-run, every link at the
// end, and the events fired.
type hopRunResult struct {
	serStart, delivered []eventq.Time
	mid, end            []LinkDebugState
	fired               uint64
}

// runHopSends sends msgs on a fresh unbounded network of fabric, with the
// arrival records on or (hopEvents) every arrival an event. At readAt a
// read snapshots the links: after RunUntil, or from inside the cycle when
// stop freezes the run there with an event scheduled ahead of the sends.
func runHopSends(t *testing.T, fabric []topology.DimSpec, p config.Network, msgs []hopSend, readAt eventq.Time, stop, hopEvents bool) hopRunResult {
	t.Helper()
	topo, err := topology.NewHierarchical(fabric)
	if err != nil {
		t.Fatal(err)
	}
	eng := eventq.New()
	net, err := NewFast(eng, topo, p)
	if err != nil {
		t.Fatal(err)
	}
	net.hopEvents = hopEvents
	r := topology.NewRouter(topo)
	if stop {
		eng.At(readAt, eng.Stop)
	}
	sent := make([]*Message, len(msgs))
	for i, m := range msgs {
		msg := &Message{Src: m.src, Dst: m.dst, Bytes: m.bytes, Path: r.Route(m.src, m.dst, m.channel)}
		sent[i] = msg
		eng.At(m.at, func() { net.Send(msg) })
	}
	var res hopRunResult
	if stop {
		eng.Run()
	} else {
		eng.RunUntil(readAt)
	}
	res.mid = net.DebugLinks()
	eng.Run()
	res.end = net.DebugLinks()
	for i := range res.end {
		if res.end[i].Stats != net.LinkStatsFor(topology.LinkID(i)) {
			t.Fatalf("link %d: DebugLinks and LinkStatsFor disagree", i)
		}
	}
	if !net.Quiet() {
		t.Fatal("network not quiet after the run")
	}
	for _, msg := range sent {
		res.serStart = append(res.serStart, msg.SerStart)
		res.delivered = append(res.delivered, msg.Delivered)
	}
	res.fired = eng.Fired()
	return res
}

// FuzzSwitchHopOrder checks the unbounded model's switch-hop records
// against the per-packet model they stand for: random one-packet and
// long messages on a tiny switched fabric, several sources converging on
// one switch->NPU link, equal sizes and start cycles (so equal arrival
// keys up to the seq), and a link read mid-run, after RunUntil or inside
// a stopped cycle. Every message's SerStart and Delivered and every
// link's counters and busy state must be the per-packet model's, and the
// records must leave nothing pending.
//
// Each input byte group encodes one message: start cycle, source,
// destination, size class and channel.
func FuzzSwitchHopOrder(f *testing.F) {
	f.Add(uint8(0), uint16(300), false, []byte{0, 0, 1, 2, 0, 0, 2, 1, 2, 0, 0, 3, 1, 2, 0})
	f.Add(uint8(1), uint16(150), true, []byte{0, 0, 5, 1, 1, 0, 1, 5, 1, 1, 3, 2, 4, 3, 0, 3, 4, 0, 0, 0})
	f.Add(uint8(0), uint16(95), true, []byte{5, 1, 0, 0, 0, 5, 2, 0, 0, 0, 5, 3, 0, 0, 0, 6, 1, 0, 3, 0})
	f.Add(uint8(3), uint16(1000), false, []byte{0, 0, 3, 4, 0, 0, 1, 3, 4, 0, 7, 2, 3, 4, 1, 9, 3, 2, 1, 1})
	f.Fuzz(func(t *testing.T, mode uint8, readAt uint16, stop bool, data []byte) {
		fabric := hopFabrics[int(mode)%len(hopFabrics)]
		p := config.DefaultNetwork()
		if mode&2 != 0 {
			p.MaxPacketsPerMessage = 0
		}
		npus := 1
		for _, d := range fabric {
			npus *= d.Size
		}
		// Sizes: one packet, a partial packet, several packets, a capped
		// message that ends in empty packets, and a long one.
		sizes := []int64{1, 200, 256, 3 * 256, 64*256 + 10, 100 << 10}
		var msgs []hopSend
		for i := 0; i+5 <= len(data) && len(msgs) < 24; i += 5 {
			src := topology.Node(int(data[i+1]) % npus)
			dst := topology.Node(int(data[i+2]) % npus)
			if src == dst {
				continue
			}
			msgs = append(msgs, hopSend{
				at:  eventq.Time(data[i] % 16),
				src: src, dst: dst,
				bytes:   sizes[int(data[i+3])%len(sizes)],
				channel: int(data[i+4] % 4),
			})
		}
		if len(msgs) == 0 {
			return
		}
		got := runHopSends(t, fabric, p, msgs, eventq.Time(readAt), stop, false)
		want := runHopSends(t, fabric, p, msgs, eventq.Time(readAt), stop, true)
		for i := range msgs {
			if got.serStart[i] != want.serStart[i] || got.delivered[i] != want.delivered[i] {
				t.Fatalf("message %d %+v: SerStart %d, Delivered %d; per-packet %d, %d",
					i, msgs[i], got.serStart[i], got.delivered[i], want.serStart[i], want.delivered[i])
			}
		}
		for i := range got.end {
			for _, s := range []struct {
				what      string
				got, want LinkDebugState
			}{{"mid-run", got.mid[i], want.mid[i]}, {"final", got.end[i], want.end[i]}} {
				g := s.got
				g.Pending = 0
				if g != s.want {
					t.Fatalf("link %d %s read: %+v; per-packet %+v", i, s.what, s.got, s.want)
				}
			}
			if got.end[i].Pending != 0 {
				t.Fatalf("link %d: %d records pending after the run", i, got.end[i].Pending)
			}
		}
		if got.fired > want.fired {
			t.Fatalf("records fired %d events, per-packet %d", got.fired, want.fired)
		}
	})
}

// TestSwitchHopSendZeroAlloc pins the switched send path at zero
// allocations once warm: messages from three sources converging on one
// switch->NPU link, recorded, charged in order and delivered, allocate
// nothing after the event queue and the pending heap have grown.
func TestSwitchHopSendZeroAlloc(t *testing.T) {
	topo, err := topology.NewHierarchical(hopFabrics[0])
	if err != nil {
		t.Fatal(err)
	}
	eng := eventq.New()
	net, err := NewFast(eng, topo, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	r := topology.NewRouter(topo)
	var msgs []*Message
	for src := topology.Node(1); src < 4; src++ {
		msgs = append(msgs, &Message{Bytes: 64 << 10, Path: r.Route(src, 0, 0)})
	}
	send := func() {
		for _, m := range msgs {
			net.Send(m)
		}
		eng.Run()
	}
	for i := 0; i < 8; i++ {
		send()
	}
	if got := testing.AllocsPerRun(100, send); got != 0 {
		t.Fatalf("steady-state switched send: %v allocations, want 0", got)
	}
	// One arrival event and one delivery per message: the other packets
	// were records.
	before := eng.Fired()
	send()
	if got := eng.Fired() - before; got != 2*uint64(len(msgs)) {
		t.Fatalf("%d events for %d messages, want %d", got, len(msgs), 2*len(msgs))
	}
}
