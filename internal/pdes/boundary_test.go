package pdes

// White-box shard-boundary tests: the degenerate single-shard partition,
// deliveries landing exactly on the lookahead horizon, and Stop freezing
// the windowed run — all driven directly at the noc level so the runner's
// mechanics are visible without the system layer on top.

import (
	"strings"
	"sync"
	"testing"

	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/noc"
	"astrasim/internal/topology"
)

// buildNet constructs a packet network over an MxNxK torus on a fresh
// engine.
func buildNet(t *testing.T, m, n, k int) (*eventq.Engine, *noc.Network, topology.Topology, config.Network) {
	t.Helper()
	topo, err := topology.NewTorus(m, n, k, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	netCfg := config.DefaultNetwork()
	eng := eventq.New()
	nn, err := noc.New(eng, topo, netCfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, nn, topo, netCfg
}

// ringSends injects one message per NPU along its local ring successor
// and records delivery times.
func ringSends(eng *eventq.Engine, nn *noc.Network, topo topology.Topology, bytes int64) *[]eventq.Time {
	times := &[]eventq.Time{}
	for n := 0; n < topo.NumNPUs(); n++ {
		node := topology.Node(n)
		r := topo.RingOf(topology.DimLocal, node, 0)
		if r.Size() <= 1 {
			continue
		}
		msg := &noc.Message{
			Src: node, Dst: r.Next(node), Bytes: bytes,
			Path:        topo.PathLinks(topology.DimLocal, 0, node, r.Next(node)),
			OnDelivered: func(m *noc.Message) { *times = append(*times, m.Delivered) },
		}
		nn.Send(msg)
	}
	return times
}

// TestSinglePartitionDegenerate forces every component onto ONE shard
// engine — the degenerate partition — and requires delivery times
// identical to the serial engine. This isolates the window protocol and
// key-carrying injection from any effect of partition layout.
func TestSinglePartitionDegenerate(t *testing.T) {
	const bytes = 4096
	// Serial reference.
	sEng, sNet, sTopo, _ := buildNet(t, 4, 1, 1)
	want := ringSends(sEng, sNet, sTopo, bytes)
	sEng.Run()

	// Degenerate partition: one shard engine for all components.
	eng, nn, topo, _ := buildNet(t, 4, 1, 1)
	comps, look, err := nn.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if comps < 2 {
		t.Fatalf("want a multi-component plan to degenerate, got %d components", comps)
	}
	r := &Runner{main: eng, shards: []*eventq.Engine{eventq.New()}, look: look, workers: 1}
	if err := r.attach(nn); err != nil {
		t.Fatal(err)
	}
	got := ringSends(eng, nn, topo, bytes)
	eng.Run()

	if len(*got) != len(*want) || len(*want) == 0 {
		t.Fatalf("delivered %d messages, serial delivered %d", len(*got), len(*want))
	}
	for i := range *want {
		if (*got)[i] != (*want)[i] {
			t.Fatalf("delivery %d at cycle %d, serial at %d", i, (*got)[i], (*want)[i])
		}
	}
	if r.Windows() == 0 {
		t.Fatal("windowed driver never ran a window")
	}
}

// TestLookaheadHorizonDelivery pins the boundary case the window proof
// hinges on: on an all-local topology every hop delay EQUALS the
// lookahead, so every shard→main delivery lands exactly at t+L — one
// cycle past the window [t, t+L-1]. Those deliveries must be flushed and
// fired, not lost, and timing must match serial exactly.
func TestLookaheadHorizonDelivery(t *testing.T) {
	eng, nn, topo, netCfg := buildNet(t, 4, 1, 1)
	r, err := Attach(eng, nn, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantHop := eventq.Time(netCfg.LocalLinkLatency + netCfg.RouterLatency)
	if r.look != wantHop {
		t.Fatalf("all-local topology: lookahead %d, want the local hop delay %d", r.look, wantHop)
	}

	sEng, sNet, sTopo, _ := buildNet(t, 4, 1, 1)
	want := ringSends(sEng, sNet, sTopo, 64) // one packet per message: delivery exactly at serialization + L
	sEng.Run()

	got := ringSends(eng, nn, topo, 64)
	end := eng.Run()

	if len(*got) != len(*want) || len(*want) == 0 {
		t.Fatalf("delivered %d messages, serial delivered %d", len(*got), len(*want))
	}
	for i := range *want {
		if (*got)[i] != (*want)[i] {
			t.Fatalf("delivery %d at cycle %d, serial at %d", i, (*got)[i], (*want)[i])
		}
	}
	// The windowed driver tiles the clock to the end of the final window,
	// so the unbounded Run return is >= the serial end time but within one
	// lookahead window of it. All observable results (delivery times,
	// handle durations) are exact; only the post-quiescence clock differs.
	if end < sEng.Now() || end >= sEng.Now()+r.look {
		t.Fatalf("partitioned run ended at %d, want within [%d, %d)", end, sEng.Now(), sEng.Now()+r.look)
	}
}

// TestStopFreezesWindowedRun mirrors the serial Stop contract: the run
// freezes at the end of the in-flight window, pending events stay
// queued, and the drain hook does not fire.
func TestStopFreezesWindowedRun(t *testing.T) {
	eng, nn, topo, _ := buildNet(t, 4, 1, 1)
	r, err := Attach(eng, nn, 1)
	if err != nil {
		t.Fatal(err)
	}
	drained := false
	eng.SetOnDrain(func() { drained = true })
	ringSends(eng, nn, topo, 1<<20)
	eng.Schedule(1, func() { eng.Stop() })
	eng.Run()
	if !eng.Stopped() {
		t.Fatal("engine did not report Stopped")
	}
	if drained {
		t.Fatal("drain hook fired on a stopped run")
	}
	pending := eng.Pending()
	for _, sh := range r.Shards() {
		pending += sh.Pending()
	}
	if pending == 0 {
		t.Fatal("expected in-flight work to remain queued after Stop")
	}
}

// TestDriveShardWorkerContract pins the assignment noc.Partition's
// per-worker serialization memos rely on: in every window, Drive runs
// shard i on pool worker i % workers, and never on another.
func TestDriveShardWorkerContract(t *testing.T) {
	eng, nn, _, _ := buildNet(t, 4, 4, 4)
	const workers = 3
	r, err := Attach(eng, nn, workers)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Shards()) <= workers {
		t.Fatalf("%d shards for %d workers: want several shards per worker", len(r.Shards()), workers)
	}
	const windows = 5
	for _, sh := range r.Shards() {
		for k := eventq.Time(0); k < windows; k++ {
			sh.At(k*r.look, func() {})
		}
	}
	var mu sync.Mutex
	ran := make([]int, len(r.Shards()))
	r.onShard = func(w, i int) {
		mu.Lock()
		defer mu.Unlock()
		if w != i%workers {
			t.Errorf("shard %d ran on worker %d, want %d", i, w, i%workers)
		}
		ran[i]++
	}
	eng.Run()
	for i, n := range ran {
		if n < windows {
			t.Errorf("shard %d ran %d windows, want at least %d", i, n, windows)
		}
	}
}

// TestAttachRejectsUnplannedNetworks: a zero hop delay degenerates the
// window to nothing, and a topology without links has nothing to
// partition; Attach must refuse both instead of livelocking, and leave
// the engine's serial loop in place.
func TestAttachRejectsUnplannedNetworks(t *testing.T) {
	zeroHop := config.DefaultNetwork()
	zeroHop.LocalLinkLatency, zeroHop.RouterLatency = 0, 0
	for _, c := range []struct {
		name    string
		m, n, k int
		p       config.Network
		want    string
	}{
		{"zero hop delay", 2, 2, 2, zeroHop, "zero hop delay"},
		{"no links", 1, 1, 1, config.DefaultNetwork(), "no links"},
	} {
		t.Run(c.name, func(t *testing.T) {
			topo, err := topology.NewTorus(c.m, c.n, c.k, topology.DefaultTorusConfig())
			if err != nil {
				t.Fatal(err)
			}
			eng := eventq.New()
			nn, err := noc.New(eng, topo, c.p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Attach(eng, nn, 2); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Attach error %v, want one naming %q", err, c.want)
			}
			ran := false
			eng.Schedule(1, func() { ran = true })
			eng.Run()
			if !ran {
				t.Fatal("a refused Attach replaced the engine's run loop")
			}
		})
	}
}
