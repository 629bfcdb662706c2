package noc

import (
	"testing"

	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/topology"
)

// runContendedRing drives a 3-hop message (0->1->2->3) through a 4-node
// ring while single-hop cross traffic contends for the middle link, and
// returns the per-link stats plus every delivery timestamp.
func runContendedRing(t *testing.T) ([]LinkStats, []eventq.Time) {
	t.Helper()
	topo, err := topology.NewTorus(4, 1, 1, topology.TorusConfig{LocalRings: 1, HorizontalRings: 1, VerticalRings: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := config.DefaultNetwork()
	p.MaxPacketsPerMessage = 0
	// Shrink buffering so the 3-hop path actually backpressures.
	p.BuffersPerVC = 2
	eng := eventq.New()
	net, err := New(eng, topo, p)
	if err != nil {
		t.Fatal(err)
	}

	r := topo.RingOf(topology.DimLocal, 0, 0)
	// Full 3-hop path 0 -> 1 -> 2 -> 3.
	var path []topology.LinkID
	for _, n := range []topology.Node{0, 1, 2} {
		path = append(path, topo.PathLinks(topology.DimLocal, 0, n, r.Next(n))...)
	}
	if len(path) != 3 {
		t.Fatalf("path has %d links, want 3", len(path))
	}

	var delivered []eventq.Time
	record := func(m *Message) { delivered = append(delivered, m.Delivered) }
	// Three multi-packet 3-hop messages...
	for i := 0; i < 3; i++ {
		net.Send(&Message{Src: 0, Dst: 3, Bytes: 8 << 10, Path: path, OnDelivered: record})
	}
	// ...contending with single-hop traffic injected at the middle link.
	mid := topo.PathLinks(topology.DimLocal, 0, 1, 2)
	for i := 0; i < 4; i++ {
		net.Send(&Message{Src: 1, Dst: 2, Bytes: 4 << 10, Path: mid, OnDelivered: record})
	}
	eng.Run()
	if !net.Quiet() {
		t.Fatal("network not quiet after run")
	}
	if len(delivered) != 7 {
		t.Fatalf("delivered %d messages, want 7", len(delivered))
	}
	stats := make([]LinkStats, len(topo.Links()))
	for i := range stats {
		stats[i] = net.LinkStatsFor(topology.LinkID(i))
	}
	return stats, delivered
}

// TestBackpressuredRingPinned pins the link counters and delivery cycles
// of a contended 3-hop ring whose small buffers block the serializers, so
// a change to how packets are queued, put on a wire or handed on under
// backpressure shows up as a changed number.
func TestBackpressuredRingPinned(t *testing.T) {
	stats, delivered := runContendedRing(t)
	wantStats := []LinkStats{
		{Packets: 48, Bytes: 24576, BusyCycles: 130, BlockedCycles: 47, PeakQueue: 48},
		{Packets: 80, Bytes: 40960, BusyCycles: 217, PeakQueue: 32},
		{Packets: 48, Bytes: 24576, BusyCycles: 130, PeakQueue: 2},
		{},
	}
	for i := range wantStats {
		if stats[i] != wantStats[i] {
			t.Errorf("link %d stats %+v, want %+v", i, stats[i], wantStats[i])
		}
	}
	wantDelivered := []eventq.Time{112, 134, 156, 178, 342, 412, 455}
	for i := range wantDelivered {
		if delivered[i] != wantDelivered[i] {
			t.Errorf("delivery %d at %d, want %d", i, delivered[i], wantDelivered[i])
		}
	}
	// The contention must be real for the pinned numbers to mean anything.
	var blocked eventq.Time
	var peak int
	for _, s := range stats {
		blocked += s.BlockedCycles
		if s.PeakQueue > peak {
			peak = s.PeakQueue
		}
	}
	if blocked == 0 {
		t.Error("expected head-of-line blocking on the contended ring")
	}
	if peak < 2 {
		t.Errorf("peak queue %d, want >= 2 (contention)", peak)
	}
}

// TestPacketHopSendZeroAlloc pins the packet model's per-packet hop path
// at zero allocations once warm: with trains off, a two-hop message with
// exact packets, sent onto a first link that already holds a queued
// message, crosses the wire between its links packet by packet, and
// sending both and running them to delivery allocates nothing after the
// link queues, the wires and the event queue have grown.
func TestPacketHopSendZeroAlloc(t *testing.T) {
	eng, topo, net := ring4(t, exact(config.DefaultNetwork()))
	net.SetFlowCollapse(false)
	r := topo.RingOf(topology.DimLocal, 0, 0)
	first := []topology.LinkID{r.LinkFrom(0)}
	path := []topology.LinkID{r.LinkFrom(0), r.LinkFrom(r.Next(0))}
	delivered := 0
	onDelivered := func(*Message) { delivered++ }
	var ahead, hop Message
	send := func() {
		ahead = Message{Bytes: 16 << 10, Path: first, OnDelivered: onDelivered}
		hop = Message{Bytes: 16 << 10, Path: path, OnDelivered: onDelivered}
		net.Send(&ahead)
		if net.links[first[0]].queue.Len() == 0 {
			t.Fatal("the two-hop message would find its first link empty")
		}
		net.Send(&hop)
		eng.Run()
	}
	for range 8 {
		send()
	}
	if got := testing.AllocsPerRun(100, send); got != 0 {
		t.Fatalf("warm per-packet hop send: %v allocations, want 0", got)
	}
	if delivered != 2*(8+101) {
		t.Fatalf("delivered %d messages, want %d", delivered, 2*(8+101))
	}
	if s := net.LinkStatsFor(path[1]); s.Packets == 0 {
		t.Fatal("no packet crossed the second hop")
	}
}
