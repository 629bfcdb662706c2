package fastnet_test

// The serialization-charge memoization was sized for one-shot CLI runs;
// a daemon keeps instances alive for whole jobs and must not let an
// adversarial traffic mix (thousands of distinct message sizes) grow the
// cache without bound. These tests pin the cap and the determinism of
// the overflow policy.

import (
	"testing"

	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/noc"
	"astrasim/internal/topology"
)

// sendDistinct pushes n single-link messages with n distinct payload
// sizes through a fresh fast network and returns it.
func sendDistinct(t *testing.T, n int) *noc.Network {
	t.Helper()
	topo, err := topology.NewTorus(1, 8, 1, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := eventq.New()
	net, err := noc.NewFast(eng, topo, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	path := []topology.LinkID{topo.Links()[0].ID}
	for i := 0; i < n; i++ {
		net.Send(&noc.Message{
			Src:   0,
			Dst:   1,
			Bytes: int64(i + 1),
			Path:  path,
		})
		eng.Run() // drain deliveries so event memory does not dominate
	}
	return net
}

// TestSerCacheBounded overflows the memoization cap with distinct keys
// and asserts the table never exceeds it: every insert above the cap drops
// the table first, so a long-lived process holds at most one generation.
func TestSerCacheBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("sends SerTableMaxEntries+ messages")
	}
	net := sendDistinct(t, noc.SerTableMaxEntries+100)
	if got := net.SerLen(); got > noc.SerTableMaxEntries {
		t.Fatalf("the memo holds %d entries, cap is %d", got, noc.SerTableMaxEntries)
	}
	// The 100 post-overflow inserts must live in a fresh generation.
	if got := net.SerLen(); got > 200 {
		t.Fatalf("the memo holds %d entries after overflow; want the post-clear generation only", got)
	}
}

// TestSerCacheOverflowDeterministic runs the same overflowing traffic
// twice and asserts bit-identical timing: a cache miss re-runs the carry
// loop whose output equals the cached value, so the clear-on-overflow
// policy cannot perturb results.
func TestSerCacheOverflowDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("sends SerTableMaxEntries+ messages")
	}
	run := func() (eventq.Time, uint64) {
		topo, err := topology.NewTorus(1, 8, 1, topology.DefaultTorusConfig())
		if err != nil {
			t.Fatal(err)
		}
		eng := eventq.New()
		net, err := noc.NewFast(eng, topo, config.DefaultNetwork())
		if err != nil {
			t.Fatal(err)
		}
		path := []topology.LinkID{topo.Links()[0].ID}
		var last eventq.Time
		for i := 0; i < noc.SerTableMaxEntries+100; i++ {
			net.Send(&noc.Message{
				Src:   0,
				Dst:   1,
				Bytes: int64(i%257 + 1), // revisit sizes: mix hits and misses
				Path:  path,
			})
			eng.Run()
			last = eng.Now()
		}
		return last, net.DeliveredMessages
	}
	t1, d1 := run()
	t2, d2 := run()
	if t1 != t2 || d1 != d2 {
		t.Fatalf("overflowing runs diverged: (%d cycles, %d msgs) vs (%d cycles, %d msgs)", t1, d1, t2, d2)
	}
}

// TestMemoKeysPacketCount is the fast backend's half of the memo
// collision regression (see noc.TestTrainMemoKeysPacketCount). On a
// 2x2x1 torus with 4-byte local and 2-byte package packets, both links
// at 25 bytes/cycle and at most 64 packets per message, a 200-byte local
// message is 50 packets and a 200-byte package message 64 packets of 4
// bytes. Both have the same bytes, packet size, bandwidth and carry, so
// a memo keyed on those alone charged the local message 64 cycles after
// the package one.
func TestMemoKeysPacketCount(t *testing.T) {
	topo, err := topology.NewTorus(2, 2, 1, topology.TorusConfig{LocalRings: 1, HorizontalRings: 1, VerticalRings: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := config.DefaultNetwork()
	p.LocalPacketSize, p.PackagePacketSize = 4, 2
	p.LocalLinkBandwidth, p.PackageLinkBandwidth = 25, 25
	p.LocalLinkEfficiency, p.PackageLinkEfficiency = 1, 1
	p.MaxPacketsPerMessage = 64
	local := topo.RingOf(topology.DimLocal, 0, 0).LinkFrom(0)
	pkg := topo.RingOf(topology.DimHorizontal, 0, 0).LinkFrom(0)
	want := eventq.Time(50 + p.LocalLinkLatency + p.RouterLatency)
	for _, warm := range []bool{false, true} {
		eng := eventq.New()
		net, err := noc.NewFast(eng, topo, p)
		if err != nil {
			t.Fatal(err)
		}
		if warm {
			net.Send(&noc.Message{Bytes: 200, Path: []topology.LinkID{pkg}})
			eng.Run()
		}
		msg := &noc.Message{Bytes: 200, Path: []topology.LinkID{local}}
		net.Send(msg)
		eng.Run()
		if got := msg.Delivered - msg.Injected; got != want {
			t.Fatalf("warm=%v: local message delivered %d cycles after injection, want %d", warm, got, want)
		}
	}
}

// TestSingleLinkSendZeroAlloc pins a steady-state single-link send at
// zero allocations: once the event queue and the memo have grown, a long
// message charged through noc's kernel and run to delivery allocates
// nothing.
func TestSingleLinkSendZeroAlloc(t *testing.T) {
	topo, err := topology.NewTorus(1, 8, 1, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := eventq.New()
	net, err := noc.NewFast(eng, topo, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	msg := &noc.Message{Bytes: 1 << 20, Path: []topology.LinkID{topo.Links()[0].ID}}
	send := func() {
		net.Send(msg)
		eng.Run()
	}
	for i := 0; i < 8; i++ {
		send()
	}
	if got := testing.AllocsPerRun(100, send); got != 0 {
		t.Fatalf("steady-state single-link send: %v allocations, want 0", got)
	}
	if net.SerLen() == 0 {
		t.Fatal("messages were not memoized")
	}
}
