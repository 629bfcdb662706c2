package noc

import (
	"math"
	"math/rand"
	"testing"

	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/topology"
)

// replaySer charges n packets one SerStep at a time, the way the
// per-packet model serializes a message: packet k carries min(pkt, what
// is left) bytes.
func replaySer(bytes, pkt, n int64, bw, carry float64) SerCharge {
	var r SerCharge
	for k := int64(0); k < n; k++ {
		b := min(pkt, bytes)
		bytes -= b
		var d eventq.Time
		d, carry = SerStep(b, bw, carry)
		r.Prev2, r.Prev, r.Total = r.Prev, r.Total, r.Total+d
	}
	r.Carry = carry
	return r
}

// sameCharge reports whether two charges agree bit for bit.
func sameCharge(a, b SerCharge) bool {
	return a.Prev2 == b.Prev2 && a.Prev == b.Prev && a.Total == b.Total &&
		math.Float64bits(a.Carry) == math.Float64bits(b.Carry)
}

// TestSerTableMatchesLoop drives one serializer through a random stream
// of message sizes, packet caps, carry resets and bandwidth changes,
// charging every message through a packet-backend memo and by
// per-packet replay: every charge, memoized or too short to be, must
// agree bit for bit, and the stream must produce both hits and misses.
func TestSerTableMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	memo := newTrainTable()
	sizes := []int64{1, 63, 64, 65, 200, 1000, 4096, 65536, 1 << 20}
	bws := []float64{37.5, 25 * 0.94, 200.0 / 3}
	carries := []float64{0, 0.5, 1.0 / 3, math.Nextafter(0.5, 1), math.Nextafter(1, 0)}
	bw, carry := bws[0], 0.0
	hits, misses := 0, 0
	for i := 0; i < 20000; i++ {
		switch r := rng.Intn(50); {
		case r == 0:
			bw = bws[rng.Intn(len(bws))]
		case r < 4:
			carry = carries[rng.Intn(len(carries))]
		}
		bytes := sizes[rng.Intn(len(sizes))] + int64(rng.Intn(3))
		pkt := int64(2 << rng.Intn(7))
		n := (bytes + pkt - 1) / pkt
		if maxP := int64(16 << rng.Intn(3)); n > maxP {
			n = maxP
			pkt = (bytes + n - 1) / n
		}

		before := memo.Len()
		got := memo.Charge(bytes, pkt, n, bw, carry)
		switch {
		case n < memo.minPackets:
		case memo.Len() == before:
			hits++
		default:
			misses++
		}
		want := replaySer(bytes, pkt, n, bw, carry)
		if !sameCharge(got, want) {
			t.Fatalf("message %d (%d B, %d x %d B packets, carry %v): kernel %+v, replay %+v",
				i, bytes, n, pkt, carry, got, want)
		}
		carry = got.Carry
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("%d hits, %d misses: the stream must mix both", hits, misses)
	}
}

// TestSerTableCollisions gives eight distinct keys the table's last slot
// as their home, so their probe run wraps to the front, and checks each is
// found with its own value while keys never inserted but sharing that
// home miss.
func TestSerTableCollisions(t *testing.T) {
	memo := NewSerTable()
	var same []serKey
	for b := int64(1); len(same) < 12; b++ {
		k := serKey{bw: 1, carry: 2, bytes: b, pn: 64<<32 | 16}
		if memo.home(k) == serTableMinSlots-1 {
			same = append(same, k)
		}
	}
	for i, k := range same[:8] {
		memo.put(k, SerCharge{Total: eventq.Time(i + 1), Carry: float64(i)})
	}
	if memo.Len() != 8 || len(memo.slots) != serTableMinSlots {
		t.Fatalf("count %d in %d slots, want 8 in %d", memo.Len(), len(memo.slots), serTableMinSlots)
	}
	for i, k := range same[:8] {
		e := memo.find(k)
		if e.key != k || e.val.Total != eventq.Time(i+1) || e.val.Carry != float64(i) {
			t.Fatalf("colliding key %d: got %+v", i, *e)
		}
	}
	for _, k := range same[8:] {
		if e := memo.find(k); e.key.bytes != 0 {
			t.Fatalf("absent key %+v found as %+v", k, *e)
		}
	}
}

// TestSerTableGrowth inserts past several doublings and checks every
// entry survives each rehash.
func TestSerTableGrowth(t *testing.T) {
	memo := NewSerTable()
	const n = 5000
	key := func(i int) serKey {
		return serKey{bw: uint64(i % 7), carry: math.Float64bits(float64(i) / n), bytes: int64(i%97 + 1), pn: 64<<32 | 16}
	}
	for i := 0; i < n; i++ {
		memo.put(key(i), SerCharge{Total: eventq.Time(i)})
	}
	if memo.Len() != n || 2*memo.Len() > len(memo.slots) {
		t.Fatalf("count %d in %d slots, want %d at most half full", memo.Len(), len(memo.slots), n)
	}
	for i := 0; i < n; i++ {
		if e := memo.find(key(i)); e.key != key(i) || e.val.Total != eventq.Time(i) {
			t.Fatalf("entry %d lost after growth: %+v", i, *e)
		}
	}
}

// TestSerTableKeysPacketCount pins the packet count in the memo key: two
// 200-byte messages with 4-byte packets, one of 50 packets and one capped
// at 64 (its last 14 packets empty), must not share an entry.
func TestSerTableKeysPacketCount(t *testing.T) {
	memo := NewSerTable()
	padded := memo.Charge(200, 4, 64, 25, 0)
	plain := memo.Charge(200, 4, 50, 25, 0)
	if padded.Total != 64 || plain.Total != 50 {
		t.Fatalf("64-packet charge %d cycles, 50-packet charge %d; want 64 and 50", padded.Total, plain.Total)
	}
}

// FuzzSerKernel checks the kernel against a per-packet SerStep replay,
// bit for bit, with the memo bypassed, on a memo miss, and on the hit
// that follows, and the lazy send paths' replays (checkReplays) against
// the same reference. pad adds empty packets past ceil(bytes/pkt) (or,
// when negative, drops packets); the seed corpus (testdata/fuzz) covers
// capped tails, sub-cycle packets (the one-cycle clamp), carries just
// below 1, partial last packets and dropped packets.
func FuzzSerKernel(f *testing.F) {
	f.Add(uint32(200), uint16(4), int16(14), 25.0, 0.0)
	f.Add(uint32(1000), uint16(64), int16(5), 25*0.94, 0.75)
	f.Fuzz(func(t *testing.T, bytes32 uint32, pkt16 uint16, pad int16, bw, carry float64) {
		bytes := int64(bytes32%(1<<18)) + 1
		pkt := int64(max(pkt16, 1))
		n := max((bytes+pkt-1)/pkt+int64(pad), 1)
		if math.IsNaN(bw) || bw <= 0 {
			bw = 25 * 0.94
		}
		bw = min(max(bw, 1e-2), 1e4)
		carry = math.Abs(math.Mod(carry, 1))
		if math.IsNaN(carry) {
			carry = 0
		}

		want := replaySer(bytes, pkt, n, bw, carry)
		if got := serLoop(bytes, pkt, n, bw, carry); !sameCharge(got, want) {
			t.Fatalf("loop: %+v, replay %+v", got, want)
		}
		memo := NewSerTable()
		for _, pass := range []string{"miss", "hit"} {
			if got := memo.Charge(bytes, pkt, n, bw, carry); !sameCharge(got, want) {
				t.Fatalf("memo %s: %+v, replay %+v", pass, got, want)
			}
		}
		checkReplays(t, bytes, pkt, n, bw, carry, want)
	})
}

// checkReplays replays n packets of a bytes-byte message, pkt bytes per
// packet, as a train segment does (segment.replay) and as a hop run does
// (hopRun.next, after the head packet is stepped as sendUnbounded steps
// it), against a per-packet SerStep reference: every packet's
// serialization interval and bytes, its key genealogy and seq, and the
// final carry must agree bit for bit, and the last packet must end at
// Charge's Total.
func checkReplays(t *testing.T, bytes, pkt, n int64, bw, carry float64, charge SerCharge) {
	t.Helper()
	seg := segment{bytes: bytes, pktSize: pkt, numPkts: n, bw: bw, carry0: carry}
	sc, vp := seg.replay()
	hc, d, b := newSerCursor(bytes, pkt, bw, carry).step(bw)
	run := hopRun{key: eventq.Key{Ctime: d, Seq: 1}, left: n, bytes: b, ser: hc, bw: bw}
	refCarry, left := carry, bytes
	var start, prevStart eventq.Time
	for k := int64(0); k < n; k++ {
		rb := min(pkt, left)
		left -= rb
		var rd eventq.Time
		rd, refCarry = SerStep(rb, bw, refCarry)
		end := start + rd

		var sd eventq.Time
		sc, sd, _ = sc.step(bw)
		if vp = vp.then(sd); vp != (vpkt{start: start, end: end, gen: prevStart}) {
			t.Fatalf("packet %d: train replay %+v, want [%d, %d) gen %d", k, vp, start, end, prevStart)
		}
		if k > 0 {
			run.next()
		}
		if run.key.Gen2 != start || run.key.Ctime != end || run.bytes != rb || run.key.Seq != uint64(k+1) || run.left != n-k {
			t.Fatalf("packet %d: hop run %+v, want [%d, %d) of %d B, seq %d", k, run, start, end, rb, k+1)
		}
		prevStart, start = start, end
	}
	if start != charge.Total {
		t.Fatalf("replays end at %d, Charge at %d", start, charge.Total)
	}
	for _, c := range []float64{sc.carry, run.ser.carry, charge.Carry} {
		if math.Float64bits(c) != math.Float64bits(refCarry) {
			t.Fatalf("carries: train %v, hop run %v, Charge %v; per-packet %v", sc.carry, run.ser.carry, charge.Carry, refCarry)
		}
	}
}

// cappedTorus builds the memo-collision configuration on a 2x2x1 torus:
// 4-byte local and 2-byte package packets, both links at 25 bytes/cycle,
// 64 packets per message at most. A 200-byte message then runs as 50
// local packets, or as 64 package packets of 4 bytes (14 of them empty).
func cappedTorus(t *testing.T) (*topology.Fabric, config.Network) {
	t.Helper()
	topo, err := topology.NewTorus(2, 2, 1, topology.TorusConfig{LocalRings: 1, HorizontalRings: 1, VerticalRings: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := config.DefaultNetwork()
	p.LocalPacketSize, p.PackagePacketSize = 4, 2
	p.LocalLinkBandwidth, p.PackageLinkBandwidth = 25, 25
	p.LocalLinkEfficiency, p.PackageLinkEfficiency = 1, 1
	p.MaxPacketsPerMessage = 64
	return topo, p
}

// TestTrainMemoKeysPacketCount is the packet backend's half of the memo
// collision regression: a 200-byte local train message takes 50 cycles
// to serialize (141 to deliver) on a fresh network, and still does after
// a 200-byte package message, which has the same bytes, packet size,
// bandwidth and carry but 64 packets.
func TestTrainMemoKeysPacketCount(t *testing.T) {
	topo, p := cappedTorus(t)
	local := topo.RingOf(topology.DimLocal, 0, 0).LinkFrom(0)
	pkg := topo.RingOf(topology.DimHorizontal, 0, 0).LinkFrom(0)
	want := eventq.Time(50 + p.LocalLinkLatency + p.RouterLatency)
	for _, warm := range []bool{false, true} {
		eng := eventq.New()
		net, err := New(eng, topo, p)
		if err != nil {
			t.Fatal(err)
		}
		if warm {
			net.Send(&Message{Bytes: 200, Path: []topology.LinkID{pkg}})
			eng.Run()
		}
		msg := &Message{Bytes: 200, Path: []topology.LinkID{local}}
		net.Send(msg)
		eng.Run()
		if got := msg.Delivered - msg.Injected; got != want {
			t.Fatalf("warm=%v: local message delivered %d cycles after injection, want %d", warm, got, want)
		}
		if got := net.LinkStatsFor(local).BusyCycles; got != 50 {
			t.Fatalf("warm=%v: local link busy %d cycles, want 50", warm, got)
		}
	}
}

// TestPartitionSharesMemoPerWorker pins the memo ownership: serial links
// share the network's table, and Partition gives two shards the same
// table exactly when the pdes runner maps them to the same pool worker
// (shard i runs on worker i % workers), and every link its shard's table.
func TestPartitionSharesMemoPerWorker(t *testing.T) {
	_, _, serial := ring4(t, config.DefaultNetwork())
	for _, l := range serial.links {
		if l.ser != &serial.ser {
			t.Fatalf("serial link %d does not use the network's memo", l.spec.ID)
		}
	}
	const shards, workers = 5, 2
	_, _, net := ring4(t, config.DefaultNetwork())
	engs := make([]*eventq.Engine, shards)
	for i := range engs {
		engs[i] = eventq.New()
	}
	if err := net.Partition(engs, workers); err != nil {
		t.Fatal(err)
	}
	for i, a := range net.shards {
		for j, b := range net.shards {
			if same := a.ser == b.ser; same != (i%workers == j%workers) {
				t.Errorf("shards %d and %d share a memo: %v, want %v", i, j, same, !same)
			}
		}
	}
	for _, l := range net.links {
		if l.ser != l.sh.ser {
			t.Errorf("link %d does not use its shard's memo", l.spec.ID)
		}
	}
}

// TestTrainSendZeroAlloc pins a steady-state train send at zero
// allocations: once the segment FIFO, the event queue and the memo have
// grown, sending a long single-link message onto a train link and running
// it to delivery allocates nothing.
func TestTrainSendZeroAlloc(t *testing.T) {
	eng, topo, net := ring4(t, config.DefaultNetwork())
	msg := &Message{Bytes: 1 << 20, Path: []topology.LinkID{topo.RingOf(topology.DimLocal, 0, 0).LinkFrom(0)}}
	send := func() {
		net.Send(msg)
		eng.Run()
	}
	for i := 0; i < 8; i++ {
		send()
	}
	if got := testing.AllocsPerRun(100, send); got != 0 {
		t.Fatalf("steady-state train send: %v allocations, want 0", got)
	}
	if net.ser.Len() == 0 || net.LinkStatsFor(msg.Path[0]).Packets == 0 {
		t.Fatal("messages did not run as memoized trains")
	}
}

// TestTrainAppendUnderLoadZeroAlloc pins a warm train append at zero
// allocations on a link whose train never empties: four messages stay
// queued, and each send is followed by running the engine to one more
// delivery. The segments retired at the train's head must make room for
// the ones appended at its tail, not grow the segment array.
func TestTrainAppendUnderLoadZeroAlloc(t *testing.T) {
	eng, topo, net := ring4(t, config.DefaultNetwork())
	const backlog = 4
	delivered := 0
	onDelivered := func(*Message) { delivered++ }
	path := []topology.LinkID{topo.RingOf(topology.DimLocal, 0, 0).LinkFrom(0)}
	msgs := make([]Message, backlog+2)
	next := 0
	send := func() {
		m := &msgs[next%len(msgs)]
		next++
		*m = Message{Bytes: 64 << 10, Path: path, OnDelivered: onDelivered}
		net.Send(m)
	}
	for range backlog {
		send()
	}
	step := func() {
		send()
		for want := delivered + 1; delivered < want; {
			eng.Step()
		}
	}
	for range 64 {
		step()
	}
	if got := testing.AllocsPerRun(100, step); got != 0 {
		t.Fatalf("warm train append under load: %v allocations, want 0", got)
	}
	// AllocsPerRun rounds down, and a growing array allocates only at each
	// doubling, so bound the array too.
	l := net.links[path[0]]
	if l.train.pkts == 0 {
		t.Fatal("the train emptied; the test no longer keeps the link loaded")
	}
	if c := l.train.segs.Cap(); c > 4*backlog {
		t.Fatalf("segment array grew to %d after %d appends with %d live, want at most %d", c, next, backlog, 4*backlog)
	}
}

// TestTrainLastPacketMatchesChain checks what appendTrain builds from the
// kernel's three packet boundaries against the per-packet replay the
// transit paths use: for one- and two-packet messages, capped and exact
// ones, appended to an idle or a busy train, the segment's last packet
// (interval and key genealogy) and the link's carry must equal the
// segment replay's.
func TestTrainLastPacketMatchesChain(t *testing.T) {
	for _, p := range []config.Network{config.DefaultNetwork(), exact(config.DefaultNetwork())} {
		eng, topo, net := ring4(t, p)
		l := net.links[topo.RingOf(topology.DimLocal, 0, 0).LinkFrom(0)]
		for i, bytes := range []int64{1, 512, 513, 1000, 64 << 10, 1 << 20, 100, 1<<20 + 7} {
			at := eventq.Time(i * 3000)
			eng.At(at, func() {
				net.Send(&Message{Bytes: bytes, Path: []topology.LinkID{l.spec.ID}})
				s := l.train.segs.Back()
				c, pkt := s.replay()
				for range s.numPkts {
					var d eventq.Time
					c, d, _ = c.step(s.bw)
					pkt = pkt.then(d)
				}
				if pkt != s.last() || math.Float64bits(c.carry) != math.Float64bits(l.serCarry) {
					t.Errorf("cap %d, %d B: last packet %+v carry %v, segment replay %+v carry %v",
						p.MaxPacketsPerMessage, bytes, s.last(), l.serCarry, pkt, c.carry)
				}
			})
		}
		eng.Run()
	}
}
