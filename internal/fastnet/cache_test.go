package fastnet

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
func sendDistinct(t *testing.T, n int) *Network {
	t.Helper()
	topo, err := topology.NewTorus(1, 8, 1, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := eventq.New()
	net, err := New(eng, topo, config.DefaultNetwork())
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
		t.Skip("sends serCacheMaxEntries+ messages")
	}
	net := sendDistinct(t, serCacheMaxEntries+100)
	if got := net.serCache.count; got > serCacheMaxEntries {
		t.Fatalf("serCache holds %d entries, cap is %d", got, serCacheMaxEntries)
	}
	// The 100 post-overflow inserts must live in a fresh generation.
	if got := net.serCache.count; got > 200 {
		t.Fatalf("serCache holds %d entries after overflow; want the post-clear generation only", got)
	}
}

// TestSerCacheOverflowDeterministic runs the same overflowing traffic
// twice and asserts bit-identical timing: a cache miss re-runs the carry
// loop whose output equals the cached value, so the clear-on-overflow
// policy cannot perturb results.
func TestSerCacheOverflowDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("sends serCacheMaxEntries+ messages")
	}
	run := func() (eventq.Time, uint64) {
		topo, err := topology.NewTorus(1, 8, 1, topology.DefaultTorusConfig())
		if err != nil {
			t.Fatal(err)
		}
		eng := eventq.New()
		net, err := New(eng, topo, config.DefaultNetwork())
		if err != nil {
			t.Fatal(err)
		}
		path := []topology.LinkID{topo.Links()[0].ID}
		var last eventq.Time
		for i := 0; i < serCacheMaxEntries+100; i++ {
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
