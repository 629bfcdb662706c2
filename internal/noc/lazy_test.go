package noc

// The lazy segment-done contract (train.go): a train segment schedules no
// event of its own, yet every link-state read sees it retired exactly
// when its segment-done event would have fired, and the event is
// scheduled once for a real packet that queues behind the train.

import (
	"testing"

	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/topology"
)

// TestLazySegmentRetiresAtItsEnd: a 1 KiB message on an idle local train
// link is two 512-byte packets at 188 B/cycle, serialized in
// floor(2.72) = 2 cycles (carry 0.72) and floor(2.72+0.72) = 3 cycles, so
// its segment ends at E = 5. One cycle earlier the link is busy with no
// counters committed; from E on it is idle and the network is quiet,
// with 2 packets, 1024 bytes and 5 busy cycles committed, while the
// message's delivery (at 5+91) is still pending.
func TestLazySegmentRetiresAtItsEnd(t *testing.T) {
	const end = 5
	eng, topo, net := ring4(t, exact(config.DefaultNetwork()))
	l01 := topo.RingOf(topology.DimLocal, 0, 0).LinkFrom(0)
	net.Send(&Message{Src: 0, Bytes: 1024, Path: []topology.LinkID{l01}})

	eng.RunUntil(end - 1)
	if st := net.DebugLinks()[l01]; !st.Busy || st.Stats != (LinkStats{PeakQueue: 2}) || net.Quiet() {
		t.Fatalf("cycle %d: link %+v, quiet=%v; want busy with nothing committed", end-1, st, net.Quiet())
	}
	eng.RunUntil(end)
	want := LinkStats{Packets: 2, Bytes: 1024, BusyCycles: end, PeakQueue: 2}
	if st := net.DebugLinks()[l01]; st.Busy || st.Stats != want || !net.Quiet() {
		t.Fatalf("cycle %d: link %+v, quiet=%v; want idle with %+v", end, st, net.Quiet(), want)
	}
	if got := net.LinkStatsFor(l01); got != want {
		t.Fatalf("LinkStatsFor = %+v, want %+v", got, want)
	}
	if eng.Pending() != 1 {
		t.Fatalf("%d events pending, want only the delivery", eng.Pending())
	}
}

// TestLazySegmentStopInsideItsCycle: a run stopped inside cycle E sees
// the segment retired only if its segment-done event sorts before the
// stopping event. That event's key is the last packet's linkSerDone key,
// created at the packet's start (cycle 2): a stop event created at cycle
// 0 fires first, one created at cycle 3 fires after it.
func TestLazySegmentStopInsideItsCycle(t *testing.T) {
	const end = 5
	for _, tc := range []struct {
		created eventq.Time
		retired bool
	}{{0, false}, {3, true}} {
		eng, topo, net := ring4(t, exact(config.DefaultNetwork()))
		l01 := topo.RingOf(topology.DimLocal, 0, 0).LinkFrom(0)
		net.Send(&Message{Src: 0, Bytes: 1024, Path: []topology.LinkID{l01}})
		eng.At(tc.created, func() { eng.At(end, eng.Stop) })
		if got := eng.RunUntil(end + 10); got != end || !eng.Stopped() {
			t.Fatalf("stop created at %d: run froze at %d (stopped=%v), want %d", tc.created, got, eng.Stopped(), end)
		}
		st := net.DebugLinks()[l01]
		if st.Busy == tc.retired || (st.Stats.Packets == 2) != tc.retired || net.Quiet() != tc.retired {
			t.Fatalf("stop created at %d: link %+v, quiet=%v; want retired=%v", tc.created, st, net.Quiet(), tc.retired)
		}
		// Resuming the run retires it in either case.
		eng.RunUntil(end + 10)
		if st := net.DebugLinks()[l01]; st.Busy || st.Stats.Packets != 2 {
			t.Fatalf("stop created at %d: after resuming, link %+v", tc.created, st)
		}
	}
}

// TestLazyQueuedPacketArmsOneSegmentDone: three 1-hop messages form a
// three-segment train on link 1->2, and a one-packet 2-hop message from
// node 0 lands there at cycle 93, behind it. It starts at the train's end
// (the last 1-hop delivery minus the hop delay) and serializes in
// floor(2.72 + 0.44) = 3 cycles, the carry after the train's 3 x 16 KiB
// being frac(49152/188). The run fires three train deliveries, the 2-hop
// message's four per-packet events (serialization on 0->1, arrival at
// 1->2, serialization there, delivery) and exactly one segment-done
// event: the tail's, which restarts the serializer. Trains off gives the
// same cycles.
func TestLazyQueuedPacketArmsOneSegmentDone(t *testing.T) {
	sends := []trainSend{
		{src: 1, hops: 1, bytes: 16 << 10},
		{src: 1, hops: 1, bytes: 16 << 10},
		{src: 1, hops: 1, bytes: 16 << 10},
		{src: 0, hops: 2, bytes: 512},
	}
	for _, trains := range []bool{true, false} {
		eng, topo, net := ring4(t, exact(config.DefaultNetwork()))
		net.SetFlowCollapse(trains)
		r := topo.RingOf(topology.DimLocal, 0, 0)
		delivered := make([]eventq.Time, len(sends))
		for i, s := range sends {
			path := []topology.LinkID{r.LinkFrom(s.src)}
			if s.hops == 2 {
				path = append(path, r.LinkFrom(r.Next(s.src)))
			}
			net.Send(&Message{Src: s.src, Bytes: s.bytes, Path: path, CtxA: int32(i),
				OnDelivered: func(m *Message) { delivered[m.CtxA] = m.Delivered }})
		}
		eng.Run()
		trainEnd := delivered[2] - 91
		if want := trainEnd + 3 + 91; delivered[3] != want {
			t.Fatalf("trains=%v: queued message delivered at %d, want %d (train ends at %d)", trains, delivered[3], want, trainEnd)
		}
		if trains && eng.Fired() != 3+4+1 {
			t.Fatalf("fired %d events, want 8: 3 deliveries, 4 per-packet events, 1 segment-done", eng.Fired())
		}
	}
}
