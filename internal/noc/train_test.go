package noc

// Packet-train exactness: a run with trains on must be observationally
// identical to the per-packet model (SetFlowCollapse(false)) — every
// message's serialization start and delivery cycle, every link's
// counters, PeakQueue included, and mid-run link state — also where
// multi-hop point-to-point traffic lands on, and blocks behind, a live
// train.

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/topology"
)

// trainSend is one scheduled message: hops links around the ring from src.
type trainSend struct {
	at    eventq.Time
	src   topology.Node
	hops  int
	bytes int64
}

// trainProbe reads the network's state mid-run at cycle at: between runs,
// after RunUntil(at) fired every event up to it, or, when stop is set,
// inside the cycle, where an event created at cycle created stops the
// run. The earlier the stop event was created, the earlier it sorts
// among the cycle's events.
type trainProbe struct {
	at, created eventq.Time
	stop        bool
}

// probeState is what a probe reads: whether the network is quiet and each
// link's state, counters left out. A train commits its counters per
// message, the per-packet model per packet.
type probeState struct {
	quiet bool
	links []LinkDebugState
}

// trainRun is everything observable about one schedule's run.
type trainRun struct {
	serStart, delivered []eventq.Time
	links               []LinkDebugState
	probes              []probeState
	fired               uint64
}

// runTrainSchedule replays sends on a 4-node single-channel local ring
// whose links are source-fed in the link plan's sense, each its own
// ordering component (New labels a torus ring so, plan.go), reading
// the network at each probe (sorted by cycle, stop probes first within
// one). prep, when non-nil, adjusts the network before any traffic.
func runTrainSchedule(t testing.TB, p config.Network, sends []trainSend, probes []trainProbe, trains bool, prep func(*Network, *topology.Ring)) trainRun {
	t.Helper()
	eng, topo, net := ring4(t, p)
	net.SetFlowCollapse(trains)
	r := topo.RingOf(topology.DimLocal, 0, 0)
	if prep != nil {
		prep(net, r)
	}
	run := trainRun{serStart: make([]eventq.Time, len(sends)), delivered: make([]eventq.Time, len(sends))}
	for i, s := range sends {
		var path []topology.LinkID
		for node, h := s.src, 0; h < s.hops; h++ {
			path = append(path, r.LinkFrom(node))
			node = r.Next(node)
		}
		msg := &Message{Src: s.src, Bytes: s.bytes, Path: path, CtxA: int32(i),
			OnDelivered: func(m *Message) {
				run.serStart[m.CtxA], run.delivered[m.CtxA] = m.SerStart, m.Delivered
			}}
		eng.At(s.at, func() { net.Send(msg) })
	}
	for _, pr := range probes {
		if pr.stop {
			eng.At(pr.created, func() { eng.At(pr.at, eng.Stop) })
		}
	}
	for _, pr := range probes {
		if pr.stop {
			eng.Run()
		} else {
			eng.RunUntil(pr.at)
		}
		ps := probeState{quiet: net.Quiet(), links: net.DebugLinks()}
		for i := range ps.links {
			ps.links[i].Stats = LinkStats{}
		}
		run.probes = append(run.probes, ps)
	}
	eng.Run()
	if !net.Quiet() {
		t.Fatalf("trains=%v: network not quiet after the run", trains)
	}
	run.links, run.fired = net.DebugLinks(), eng.Fired()
	return run
}

// newTrainSend builds a send from node src, two hops long when twoHop and
// src is 0 or 1. Two-hop paths then only chain links 0->1->2->3, so
// finite buffers can never close a cyclic wait around the ring (which
// would deadlock the per-packet model itself).
func newTrainSend(at eventq.Time, src int, twoHop bool, bytes int64) trainSend {
	hops := 1
	if twoHop && src < 2 {
		hops = 2
	}
	return trainSend{at: at, src: topology.Node(src), hops: hops, bytes: bytes}
}

// mustMatchTrains runs sends with trains off and on and requires
// identical results; it returns both runs.
func mustMatchTrains(t testing.TB, p config.Network, sends []trainSend, prep func(*Network, *topology.Ring)) (off, on trainRun) {
	t.Helper()
	return mustMatchProbed(t, p, sends, nil, prep)
}

// mustMatchProbed is mustMatchTrains with the network also read, and
// required identical, at every probe.
func mustMatchProbed(t testing.TB, p config.Network, sends []trainSend, probes []trainProbe, prep func(*Network, *topology.Ring)) (off, on trainRun) {
	t.Helper()
	off = runTrainSchedule(t, p, sends, probes, false, prep)
	on = runTrainSchedule(t, p, sends, probes, true, prep)
	for i, pr := range probes {
		a, b := on.probes[i], off.probes[i]
		if a.quiet != b.quiet || !slices.Equal(a.links, b.links) {
			t.Fatalf("probe %+v: trains read quiet=%v %+v; per-packet quiet=%v %+v", pr, a.quiet, a.links, b.quiet, b.links)
		}
	}
	for i := range sends {
		if on.delivered[i] == 0 {
			t.Fatalf("send %d %+v never delivered", i, sends[i])
		}
		if on.serStart[i] != off.serStart[i] || on.delivered[i] != off.delivered[i] {
			t.Fatalf("send %d %+v: trains serialize at %d, deliver at %d; per-packet %d, %d",
				i, sends[i], on.serStart[i], on.delivered[i], off.serStart[i], off.delivered[i])
		}
	}
	for i := range off.links {
		if on.links[i] != off.links[i] {
			t.Fatalf("link %d: trains %+v, per-packet %+v", i, on.links[i], off.links[i])
		}
	}
	return off, on
}

// smallBuffers gives every link a 2-packet input buffer.
func smallBuffers() config.Network {
	p := exact(config.DefaultNetwork())
	p.VCsPerVNet = 1
	p.BuffersPerVC = 8
	return p
}

// TestTrainTransitBlocking: 2-hop messages land on link 1->2 while it
// carries a train of 1-hop messages, block behind the train's virtual
// packets (2-packet buffers), and are released packet by packet; later
// 1-hop sends queue behind the real packets. Results match the per-packet
// model exactly, with fewer events.
func TestTrainTransitBlocking(t *testing.T) {
	sends := []trainSend{
		{at: 0, src: 1, hops: 1, bytes: 64 << 10},
		{at: 0, src: 0, hops: 2, bytes: 16 << 10},
		{at: 10, src: 1, hops: 1, bytes: 8 << 10},
		{at: 95, src: 0, hops: 2, bytes: 3000},
		{at: 200, src: 1, hops: 1, bytes: 4 << 10},
		{at: 300, src: 2, hops: 1, bytes: 2 << 10},
		{at: 5000, src: 1, hops: 1, bytes: 1 << 10},
	}
	off, on := mustMatchTrains(t, smallBuffers(), sends, nil)
	var blocked eventq.Time
	for _, l := range on.links {
		blocked += l.Stats.BlockedCycles
	}
	if blocked == 0 {
		t.Fatal("no upstream link blocked: the schedule does not exercise transit behind a train")
	}
	if on.fired >= off.fired {
		t.Errorf("trains fired %d events, per-packet %d: want fewer", on.fired, off.fired)
	}
}

// TestTrainPeakQueueCountsTransit: with the feeding link 4x faster,
// transit packets pile up on link 1->2 faster than its train drains, so
// the link's PeakQueue is set when a transit packet lands — counting the
// train's unserialized packets, as the per-packet queue holds them.
func TestTrainPeakQueueCountsTransit(t *testing.T) {
	sends := []trainSend{
		{at: 0, src: 0, hops: 2, bytes: 64 << 10},
		{at: 0, src: 1, hops: 1, bytes: 40 << 10},
		{at: 30, src: 1, hops: 1, bytes: 10 << 10},
	}
	boost := func(n *Network, r *topology.Ring) { n.ScaleLinkBandwidth(r.LinkFrom(0), 4) }
	_, on := mustMatchTrains(t, exact(config.DefaultNetwork()), sends, boost)
	if pq := on.links[1].Stats.PeakQueue; pq <= 100 {
		t.Fatalf("link 1->2 PeakQueue %d: the schedule no longer peaks on transit arrivals", pq)
	}
}

// TestTrainOneAndTwoHopMix: a denser mix of 1-hop sends from every node
// and 2-hop sends, including same-cycle injections, on small and default
// buffers.
func TestTrainOneAndTwoHopMix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range []config.Network{smallBuffers(), exact(config.DefaultNetwork()), config.DefaultNetwork()} {
		for trial := 0; trial < 20; trial++ {
			var sends []trainSend
			var at eventq.Time
			for i := 0; i < 24; i++ {
				at += eventq.Time(rng.Intn(3) * rng.Intn(120))
				sends = append(sends, newTrainSend(at, rng.Intn(4), rng.Intn(2) == 1, 1+rng.Int63n(20000)))
			}
			mustMatchTrains(t, p, sends, nil)
		}
	}
}

// TestTrainBandwidthChargedPerSegment: a mid-run ScaleLinkBandwidth does
// not corrupt a live train's replay — messages already on the train keep
// the rate they were charged at, and the train still drains cleanly.
func TestTrainBandwidthChargedPerSegment(t *testing.T) {
	p := smallBuffers()
	eng, topo, net := ring4(t, p)
	r := topo.RingOf(topology.DimLocal, 0, 0)
	l01 := r.LinkFrom(0)
	var got []eventq.Time
	send := func(src topology.Node, hops int) {
		path := []topology.LinkID{r.LinkFrom(src)}
		if hops == 2 {
			path = append(path, r.LinkFrom(r.Next(src)))
		}
		net.Send(&Message{Src: src, Bytes: 32 << 10, Path: path,
			OnDelivered: func(m *Message) { got = append(got, m.Delivered) }})
	}
	eng.At(0, func() { send(0, 1) })
	eng.At(5, func() { net.ScaleLinkBandwidth(l01, 0.5) })
	eng.At(6, func() { send(3, 2) }) // lands on l01 behind the train
	eng.Run()
	if len(got) != 2 || !net.Quiet() {
		t.Fatalf("delivered %v, quiet=%v", got, net.Quiet())
	}
	if st := net.LinkStatsFor(l01); st.Bytes != 64<<10 {
		t.Fatalf("link carried %d bytes, want %d", st.Bytes, 64<<10)
	}
}

// decodeTrainSchedule turns fuzz bytes into network parameters, a send
// schedule and probes: byte 0 sets the input buffer depth (1-16 packets),
// byte 1 the link latency and packet cap, then every 4 bytes are one send
// (time step, source, hop count and size) and one probe, up to 1008
// cycles after the send, of the kind the time step's top two bits pick:
// between runs, or a stop created at cycle 0, one cycle before, or in
// the probed cycle.
func decodeTrainSchedule(data []byte) (config.Network, []trainSend, []trainProbe) {
	p := smallBuffers()
	if len(data) >= 2 {
		p.BuffersPerVC = 4 * (1 + int(data[0]%16))
		p.LocalLinkLatency = uint64(data[1] >> 2)
		p.MaxPacketsPerMessage = 16 * int(data[1]&3)
		data = data[2:]
	}
	var sends []trainSend
	var probes []trainProbe
	var at eventq.Time
	for ; len(data) >= 4 && len(sends) < 48; data = data[4:] {
		at += eventq.Time(data[0] % 64)
		size := 1 + int64(data[3])*(1+int64(data[2]>>1))*4
		sends = append(sends, newTrainSend(at, int(data[1]%4), data[2]&1 == 1, size))
		pr := trainProbe{at: at + 16*eventq.Time(data[1]>>2)}
		switch data[0] >> 6 {
		case 1:
			pr.stop = true
		case 2:
			pr.stop, pr.created = true, pr.at-min(pr.at, 1)
		case 3:
			pr.stop, pr.created = true, pr.at
		}
		probes = append(probes, pr)
	}
	slices.SortStableFunc(probes, func(a, b trainProbe) int {
		switch {
		case a.at != b.at:
			return cmp.Compare(a.at, b.at)
		case a.stop == b.stop:
			return 0
		case a.stop:
			return -1
		}
		return 1
	})
	return p, sends, probes
}

// FuzzTrainEquivalence: any schedule of 1- and 2-hop sends, at any sizes,
// times and buffer depths, delivers every message at the same cycle,
// shows the same link state at every probe and leaves every link in the
// same state with trains on as with trains off.
func FuzzTrainEquivalence(f *testing.F) {
	f.Add([]byte{0x01, 0x00, 0x00, 0x01, 0x20, 0x80, 0x00, 0x00, 0x01, 0x40, 0x05, 0x01, 0x00, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, sends, probes := decodeTrainSchedule(data)
		if len(sends) == 0 {
			return
		}
		mustMatchProbed(t, p, sends, probes, nil)
	})
}
