package system

import (
	"testing"

	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/topology"
)

func torus(t *testing.T, m, n, k int, cfg topology.TorusConfig) *topology.Fabric {
	t.Helper()
	tp, err := topology.NewTorus(m, n, k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestSingleRingAllReduceCompletes(t *testing.T) {
	tp := torus(t, 1, 2, 1, topology.DefaultTorusConfig())
	h, err := RunCollective(tp, config.DefaultSystem(), config.DefaultNetwork(), collectives.AllReduce, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if h.DoneAt == 0 {
		t.Fatal("collective completed at time 0")
	}
	if h.NumPhases() != 1 {
		t.Errorf("phases = %d, want 1", h.NumPhases())
	}
}

func TestAllCollectivesCompleteOnAllTopologies(t *testing.T) {
	a2a, err := topology.NewA2A(2, 4, topology.DefaultA2AConfig())
	if err != nil {
		t.Fatal(err)
	}
	topos := []topology.Topology{
		torus(t, 2, 2, 2, topology.DefaultTorusConfig()),
		torus(t, 1, 8, 1, topology.DefaultTorusConfig()),
		torus(t, 4, 2, 2, topology.DefaultTorusConfig()),
		a2a,
	}
	ops := []collectives.Op{
		collectives.ReduceScatter, collectives.AllGather,
		collectives.AllReduce, collectives.AllToAll,
	}
	for _, tp := range topos {
		for _, op := range ops {
			for _, alg := range []config.Algorithm{config.Baseline, config.Enhanced} {
				cfg := config.DefaultSystem()
				cfg.Algorithm = alg
				h, err := RunCollective(tp, cfg, config.DefaultNetwork(), op, 256<<10)
				if err != nil {
					t.Fatalf("%s/%v/%v: %v", tp.Name(), op, alg, err)
				}
				if h.Duration() == 0 {
					t.Errorf("%s/%v/%v: zero duration", tp.Name(), op, alg)
				}
			}
		}
	}
}

// The achieved all-reduce time on a 1D ring should approach the bandwidth
// bound: each node transmits 2(N-1)/N * S spread over the parallel
// unidirectional rings.
func TestRingAllReduceApproachesBandwidthBound(t *testing.T) {
	tp := torus(t, 1, 8, 1, topology.DefaultTorusConfig()) // 4 channels
	const S = 16 << 20
	net := config.DefaultNetwork()
	h, err := RunCollective(tp, config.DefaultSystem(), net, collectives.AllReduce, S)
	if err != nil {
		t.Fatal(err)
	}
	perNode := 2.0 * 7 / 8 * S
	perLink := perNode / 4 // 4 unidirectional rings
	ideal := perLink / (net.PackageLinkBandwidth * net.PackageLinkEfficiency)
	got := float64(h.Duration())
	if got < ideal {
		t.Fatalf("duration %.0f beat the bandwidth bound %.0f", got, ideal)
	}
	if got > 1.35*ideal {
		t.Errorf("duration %.0f exceeds 1.35x bandwidth bound %.0f; pipelining broken?", got, ideal)
	}
}

// Fig. 11 shape: on an asymmetric hierarchical 4x4x4 system the enhanced
// (4-phase) algorithm beats the baseline (3-phase) all-reduce.
func TestEnhancedBeatsBaselineOnAsymmetricTorus(t *testing.T) {
	tp := torus(t, 4, 4, 4, topology.DefaultTorusConfig())
	net := config.DefaultNetwork() // local 200 = 8 x 25 inter: asymmetric
	run := func(alg config.Algorithm) float64 {
		cfg := config.DefaultSystem()
		cfg.Algorithm = alg
		h, err := RunCollective(tp, cfg, net, collectives.AllReduce, 8<<20)
		if err != nil {
			t.Fatal(err)
		}
		return float64(h.Duration())
	}
	base, enh := run(config.Baseline), run(config.Enhanced)
	if enh >= base {
		t.Errorf("enhanced %.0f not faster than baseline %.0f on asymmetric fabric", enh, base)
	}
	// The enhanced algorithm cuts inter-package traffic 4x; end-to-end
	// gain should be substantial (>1.5x).
	if base/enh < 1.5 {
		t.Errorf("enhanced speedup %.2fx, want > 1.5x", base/enh)
	}
}

// Fig. 9 shape, all-reduce side: at large message sizes the 1D torus (8
// used links) beats the 1x8 alltoall (7 used links).
func TestFig9AllReduceTorusWinsLarge(t *testing.T) {
	torusTp := torus(t, 1, 8, 1, topology.TorusConfig{LocalRings: 1, HorizontalRings: 4, VerticalRings: 1})
	a2aTp, err := topology.NewA2A(1, 8, topology.A2AConfig{LocalRings: 1, GlobalSwitches: 7})
	if err != nil {
		t.Fatal(err)
	}
	const S = 32 << 20
	net := config.DefaultNetwork()
	ht, err := RunCollective(torusTp, config.DefaultSystem(), net, collectives.AllReduce, S)
	if err != nil {
		t.Fatal(err)
	}
	ha, err := RunCollective(a2aTp, config.DefaultSystem(), net, collectives.AllReduce, S)
	if err != nil {
		t.Fatal(err)
	}
	if ht.Duration() >= ha.Duration() {
		t.Errorf("torus all-reduce %d should beat alltoall %d at 32 MB", ht.Duration(), ha.Duration())
	}
}

// Fig. 9 shape, all-to-all side: the alltoall topology always wins the
// all-to-all collective, by a large factor.
func TestFig9AllToAllTopologyWins(t *testing.T) {
	torusTp := torus(t, 1, 8, 1, topology.TorusConfig{LocalRings: 1, HorizontalRings: 4, VerticalRings: 1})
	a2aTp, err := topology.NewA2A(1, 8, topology.A2AConfig{LocalRings: 1, GlobalSwitches: 7})
	if err != nil {
		t.Fatal(err)
	}
	net := config.DefaultNetwork()
	for _, S := range []int64{1 << 20, 32 << 20} {
		ht, err := RunCollective(torusTp, config.DefaultSystem(), net, collectives.AllToAll, S)
		if err != nil {
			t.Fatal(err)
		}
		ha, err := RunCollective(a2aTp, config.DefaultSystem(), net, collectives.AllToAll, S)
		if err != nil {
			t.Fatal(err)
		}
		if ha.Duration() >= ht.Duration() {
			t.Errorf("S=%d: alltoall topo %d should beat torus %d for all-to-all", S, ha.Duration(), ht.Duration())
		}
	}
}

func TestDispatcherThrottlesAndP0Accrues(t *testing.T) {
	tp := torus(t, 2, 2, 2, topology.DefaultTorusConfig())
	cfg := config.DefaultSystem()
	cfg.PreferredSetSplits = 64
	cfg.IssueThreshold = 4
	cfg.IssueBatch = 8
	h, err := RunCollective(tp, cfg, config.DefaultNetwork(), collectives.AllReduce, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if h.AvgQueueDelay(0) <= 0 {
		t.Errorf("P0 ready-queue delay = %v, want > 0 with 64 chunks and T=4/P=8", h.AvgQueueDelay(0))
	}
}

func TestLIFOPrioritizesNewestCollective(t *testing.T) {
	run := func(policy config.SchedulingPolicy) (firstDone, secondDone int) {
		tp := torus(t, 2, 2, 2, topology.DefaultTorusConfig())
		cfg := config.DefaultSystem()
		cfg.SchedulingPolicy = policy
		cfg.PreferredSetSplits = 32
		cfg.IssueThreshold = 2
		cfg.IssueBatch = 4
		inst, err := NewInstance(tp, cfg, config.DefaultNetwork())
		if err != nil {
			t.Fatal(err)
		}
		order := 0
		var a, b int
		if _, err := inst.Sys.IssueCollective(collectives.AllReduce, 4<<20, "A", func(*Handle) {
			order++
			a = order
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Sys.IssueCollective(collectives.AllReduce, 4<<20, "B", func(*Handle) {
			order++
			b = order
		}); err != nil {
			t.Fatal(err)
		}
		inst.Eng.Run()
		return a, b
	}
	a, b := run(config.LIFO)
	if b > a {
		t.Errorf("LIFO: collective B finished %d-th, A %d-th; B should finish first", b, a)
	}
	a, b = run(config.FIFO)
	if a > b {
		t.Errorf("FIFO: collective A finished %d-th, B %d-th; A should finish first", a, b)
	}
}

func TestPerPhaseStatsPopulated(t *testing.T) {
	tp := torus(t, 4, 4, 4, topology.DefaultTorusConfig())
	cfg := config.DefaultSystem()
	cfg.Algorithm = config.Enhanced
	h, err := RunCollective(tp, cfg, config.DefaultNetwork(), collectives.AllReduce, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumPhases() != 4 {
		t.Fatalf("phases = %d, want 4", h.NumPhases())
	}
	for p := 1; p <= 4; p++ {
		if h.AvgPhaseResidence(p) <= 0 {
			t.Errorf("phase %d residence = %v, want > 0", p, h.AvgPhaseResidence(p))
		}
	}
	// One network-delay sample per chunk per phase.
	if h.netN[1] != cfg.PreferredSetSplits {
		t.Errorf("phase 1 samples = %d, want %d (one per chunk)", h.netN[1], cfg.PreferredSetSplits)
	}
}

func TestTinyCollectiveSingleChunk(t *testing.T) {
	tp := torus(t, 2, 2, 1, topology.DefaultTorusConfig())
	inst, err := NewInstance(tp, config.DefaultSystem(), config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	h, err := inst.Sys.IssueCollective(collectives.AllReduce, 512, "tiny", nil)
	if err != nil {
		t.Fatal(err)
	}
	inst.Eng.Run()
	if len(h.chunks) != 1 {
		t.Errorf("512-byte set split into %d chunks, want 1 (min chunk size)", len(h.chunks))
	}
	if !h.Done() {
		t.Error("tiny collective did not complete")
	}
}

func TestInvalidCollectiveSize(t *testing.T) {
	tp := torus(t, 2, 2, 1, topology.DefaultTorusConfig())
	inst, err := NewInstance(tp, config.DefaultSystem(), config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Sys.IssueCollective(collectives.AllReduce, 0, "", nil); err == nil {
		t.Error("expected error for zero-size collective")
	}
}

func TestConcurrentCollectivesAllComplete(t *testing.T) {
	tp := torus(t, 2, 4, 2, topology.DefaultTorusConfig())
	inst, err := NewInstance(tp, config.DefaultSystem(), config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for i := 0; i < 10; i++ {
		op := collectives.AllReduce
		if i%3 == 1 {
			op = collectives.AllToAll
		} else if i%3 == 2 {
			op = collectives.AllGather
		}
		if _, err := inst.Sys.IssueCollective(op, 1<<20, "", func(*Handle) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	inst.Eng.Run()
	if done != 10 {
		t.Fatalf("%d of 10 collectives completed", done)
	}
	if !inst.Net.Quiet() {
		t.Error("network not quiet after completion")
	}
}

// Determinism: the same configuration must produce identical timings.
func TestSystemDeterminism(t *testing.T) {
	durations := make([]uint64, 2)
	for i := range durations {
		tp := torus(t, 2, 2, 2, topology.DefaultTorusConfig())
		h, err := RunCollective(tp, config.DefaultSystem(), config.DefaultNetwork(), collectives.AllReduce, 2<<20)
		if err != nil {
			t.Fatal(err)
		}
		durations[i] = uint64(h.Duration())
	}
	if durations[0] != durations[1] {
		t.Errorf("nondeterministic durations: %d vs %d", durations[0], durations[1])
	}
}

// A logical 4x4x4 torus mapped onto a physical 1x64x1 ring must complete
// collectives over multi-hop routes, and (bandwidth amplification: each
// logical inter-package hop crosses several physical links) be slower
// than the logical 1D topology running natively on the same fabric at
// large sizes.
func TestMappedCollectiveRuns(t *testing.T) {
	phys := torus(t, 1, 64, 1, topology.DefaultTorusConfig())
	logical3D := torus(t, 4, 4, 4, topology.DefaultTorusConfig())
	mapped, err := topology.NewMapped(logical3D, phys, topology.IdentityMapping(64))
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.DefaultSystem()
	net := config.DefaultNetwork()
	// Symmetric: every physical link on the 1D ring is inter-package.
	net.LocalLinkBandwidth = net.PackageLinkBandwidth

	hm, err := RunCollective(mapped, cfg, net, collectives.AllReduce, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	hn, err := RunCollective(phys, config.DefaultSystem(), net, collectives.AllReduce, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	if hm.Duration() == 0 {
		t.Fatal("mapped collective reported zero duration")
	}
	if hm.Duration() <= hn.Duration() {
		t.Errorf("logical 3D on a 1D ring (%d) should lose to native 1D (%d) at 2MB: multi-hop amplification",
			hm.Duration(), hn.Duration())
	}
}

// A 4D torus runs all collectives to completion.
func TestTorusNDCollectivesComplete(t *testing.T) {
	specs := make([]topology.DimSpec, 4)
	for i := range specs {
		specs[i] = topology.DimSpec{Kind: topology.KindRing, Size: 2, Lanes: 2, Class: topology.DefaultDimClass(i)}
	}
	nd, err := topology.NewHierarchical(specs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.DefaultSystem()
	for _, op := range []collectives.Op{collectives.AllReduce, collectives.AllToAll} {
		for _, alg := range []config.Algorithm{config.Baseline, config.Enhanced} {
			c := cfg
			c.Algorithm = alg
			h, err := RunCollective(nd, c, config.DefaultNetwork(), op, 1<<20)
			if err != nil {
				t.Fatalf("4D %v/%v: %v", op, alg, err)
			}
			if h.Duration() == 0 {
				t.Errorf("4D %v/%v: zero duration", op, alg)
			}
		}
	}
}

// The scale-out extension: an all-reduce spanning pods completes, the
// scale-out phase dominates (slow ethernet-like links plus transport
// delay), and scale-out traffic appears on the right link class.
func TestScaleOutCollectiveRuns(t *testing.T) {
	pod := torus(t, 2, 2, 2, topology.DefaultTorusConfig())
	so, err := topology.NewScaleOut(pod, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.DefaultSystem()
	cfg.Algorithm = config.Enhanced
	inst, err := NewInstance(so, cfg, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	done := false
	h, err := inst.Sys.IssueCollective(collectives.AllReduce, 8<<20, "", func(*Handle) { done = true })
	if err != nil {
		t.Fatal(err)
	}
	inst.Eng.Run()
	if !done {
		t.Fatal("scale-out collective did not complete")
	}
	_, _, soBytes := inst.Net.TotalBytesByClass()
	if soBytes == 0 {
		t.Error("no traffic crossed the scale-out fabric")
	}
	// The scale-out phase (4th of 5 in the enhanced algorithm) should be
	// the slowest: ~12.5 GB/s links vs 25/200 GB/s inside the pod.
	soPhase := 4
	soTime := h.AvgNetworkDelay(soPhase) + h.AvgQueueDelay(soPhase)
	for p := 1; p <= h.NumPhases(); p++ {
		if p == soPhase {
			continue
		}
		if t2 := h.AvgNetworkDelay(p) + h.AvgQueueDelay(p); t2 > soTime {
			t.Errorf("phase %d (%v) residence %.0f exceeds scale-out phase %.0f",
				p, h.Phases()[p-1], t2, soTime)
		}
	}
}

// Priority scheduling: a high-priority (low value) collective issued last
// overtakes queued lower-priority ones.
func TestPrioritySchedulingOvertakes(t *testing.T) {
	tp := torus(t, 2, 2, 2, topology.DefaultTorusConfig())
	cfg := config.DefaultSystem()
	cfg.SchedulingPolicy = config.Priority
	cfg.PreferredSetSplits = 32
	cfg.IssueThreshold = 2
	cfg.IssueBatch = 4
	inst, err := NewInstance(tp, cfg, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	order := 0
	var low, high int
	// Low-priority (value 5) collective first, then a high-priority
	// (value 0) one: the latter should finish first.
	if _, err := inst.Sys.IssueCollectivePriority(collectives.AllReduce, 4<<20, "low", 5, func(*Handle) {
		order++
		low = order
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Sys.IssueCollectivePriority(collectives.AllReduce, 4<<20, "high", 0, func(*Handle) {
		order++
		high = order
	}); err != nil {
		t.Fatal(err)
	}
	inst.Eng.Run()
	if high > low {
		t.Errorf("high-priority collective finished %d-th, low-priority %d-th", high, low)
	}
}

// Equal priorities behave like FIFO.
func TestPriorityStableAmongEquals(t *testing.T) {
	tp := torus(t, 2, 2, 2, topology.DefaultTorusConfig())
	cfg := config.DefaultSystem()
	cfg.SchedulingPolicy = config.Priority
	cfg.PreferredSetSplits = 32
	cfg.IssueThreshold = 2
	cfg.IssueBatch = 4
	inst, err := NewInstance(tp, cfg, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	order := 0
	var a, b int
	if _, err := inst.Sys.IssueCollectivePriority(collectives.AllReduce, 4<<20, "A", 3, func(*Handle) {
		order++
		a = order
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Sys.IssueCollectivePriority(collectives.AllReduce, 4<<20, "B", 3, func(*Handle) {
		order++
		b = order
	}); err != nil {
		t.Fatal(err)
	}
	inst.Eng.Run()
	if a > b {
		t.Errorf("equal-priority collectives reordered: A %d-th, B %d-th", a, b)
	}
}

// Failure injection: one straggler NPU slows the whole ring collective
// (every step's chain passes through it), and a degraded link creates the
// same effect through serialization.
func TestStragglerSlowsCollective(t *testing.T) {
	run := func(factor float64) uint64 {
		tp := torus(t, 1, 8, 1, topology.DefaultTorusConfig())
		cfg := config.DefaultSystem()
		inst, err := NewInstance(tp, cfg, config.DefaultNetwork())
		if err != nil {
			t.Fatal(err)
		}
		if factor != 1 {
			if err := inst.Sys.SetNodeStragglerFactor(3, factor); err != nil {
				t.Fatal(err)
			}
		}
		done := false
		h, err := inst.Sys.IssueCollective(collectives.AllReduce, 256<<10, "", func(*Handle) { done = true })
		if err != nil {
			t.Fatal(err)
		}
		inst.Eng.Run()
		if !done {
			t.Fatal("did not complete")
		}
		return uint64(h.Duration())
	}
	nominal := run(1)
	slow := run(50)
	if slow <= nominal {
		t.Errorf("straggler run (%d) not slower than nominal (%d)", slow, nominal)
	}
}

func TestDegradedLinkSlowsCollective(t *testing.T) {
	run := func(degrade bool) uint64 {
		tp := torus(t, 1, 8, 1, topology.DefaultTorusConfig())
		cfg := config.DefaultSystem()
		inst, err := NewInstance(tp, cfg, config.DefaultNetwork())
		if err != nil {
			t.Fatal(err)
		}
		if degrade {
			// Derate one link of every channel's ring to 10%.
			for c := 0; c < 4; c++ {
				r := tp.RingOf(topology.DimHorizontal, 0, c)
				inst.Net.ScaleLinkBandwidth(r.LinkFrom(0), 0.1)
			}
		}
		done := false
		h, err := inst.Sys.IssueCollective(collectives.AllReduce, 8<<20, "", func(*Handle) { done = true })
		if err != nil {
			t.Fatal(err)
		}
		inst.Eng.Run()
		if !done {
			t.Fatal("did not complete")
		}
		return uint64(h.Duration())
	}
	nominal := run(false)
	degraded := run(true)
	// Ring all-reduce is gated by its slowest link: 10% bandwidth on one
	// link of each ring should blow up the time by several x.
	if float64(degraded) < 3*float64(nominal) {
		t.Errorf("degraded run %d not >> nominal %d", degraded, nominal)
	}
}

// Conservation: total bytes carried by the network equal the compiled
// schedule's per-node bytes times nodes, times link-hops per message
// (1 for ring phases, 2 through a switch).
func TestTrafficConservation(t *testing.T) {
	tp := torus(t, 4, 4, 4, topology.DefaultTorusConfig())
	cfg := config.DefaultSystem()
	cfg.Algorithm = config.Enhanced
	net := config.DefaultNetwork()
	net.MaxPacketsPerMessage = 0
	inst, err := NewInstance(tp, cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	const S = 4 << 20
	done := false
	h, err := inst.Sys.IssueCollective(collectives.AllReduce, S, "", func(*Handle) { done = true })
	if err != nil {
		t.Fatal(err)
	}
	inst.Eng.Run()
	if !done {
		t.Fatal("did not complete")
	}
	var wantIntra, wantInter int64
	for _, p := range h.Phases() {
		b := p.TotalBytesPerNode(S) * int64(tp.NumNPUs())
		if p.Dim == topology.DimLocal {
			wantIntra += b
		} else {
			wantInter += b
		}
	}
	intra, inter, _ := inst.Net.TotalBytesByClass()
	// Chunk-boundary rounding introduces sub-0.5% slack.
	within := func(got, want int64) bool {
		d := got - want
		if d < 0 {
			d = -d
		}
		return d*200 <= want
	}
	if !within(intra, wantIntra) {
		t.Errorf("intra bytes = %d, want ~%d", intra, wantIntra)
	}
	if !within(inter, wantInter) {
		t.Errorf("inter bytes = %d, want ~%d", inter, wantInter)
	}
}

// Normal injection throttles each node to one in-flight message per
// outgoing link; collectives still complete, and a congested direct
// exchange cannot be faster than under aggressive injection.
func TestInjectionPolicyNormal(t *testing.T) {
	a2a, err := topology.NewA2A(1, 8, topology.A2AConfig{LocalRings: 1, GlobalSwitches: 2})
	if err != nil {
		t.Fatal(err)
	}
	run := func(policy config.InjectionPolicy) uint64 {
		cfg := config.DefaultSystem()
		cfg.InjectionPolicy = policy
		h, err := RunCollective(a2a, cfg, config.DefaultNetwork(), collectives.AllToAll, 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(h.Duration())
	}
	normal := run(config.NormalInjection)
	aggressive := run(config.AggressiveInjection)
	if normal < aggressive {
		t.Errorf("normal injection (%d) beat aggressive (%d); throttle inverted?", normal, aggressive)
	}
}

// Collectives complete on the switch-based (NVSwitch-style) topology.
func TestSwitchedCollectivesComplete(t *testing.T) {
	sw, err := topology.NewSwitched(4, 4, topology.DefaultSwitchedConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.DefaultSystem()
	for _, op := range []collectives.Op{collectives.AllReduce, collectives.AllToAll} {
		h, err := RunCollective(sw, cfg, config.DefaultNetwork(), op, 1<<20)
		if err != nil {
			t.Fatalf("switched %v: %v", op, err)
		}
		if h.Duration() == 0 {
			t.Errorf("switched %v: zero duration", op)
		}
	}
}

func TestSendPointToPoint(t *testing.T) {
	tp := torus(t, 1, 8, 1, topology.DefaultTorusConfig())
	inst, err := NewInstance(tp, config.DefaultSystem(), config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	done := eventq.Time(0)
	if err := inst.Sys.SendPointToPoint(0, 4, 1<<20, func() { done = inst.Eng.Now() }); err != nil {
		t.Fatal(err)
	}
	inst.Eng.Run()
	if done == 0 {
		t.Fatal("p2p message not delivered")
	}
	// 1 MB over 4 hops of 23.5 B/cycle links, pipelined: at least the
	// single-link serialization time.
	effBW := 25 * 0.94
	minSer := eventq.Time(float64(int64(1<<20)) / effBW)
	if done < minSer {
		t.Errorf("delivered at %d, faster than serialization %d", done, minSer)
	}
	// Same-node send completes immediately (next event).
	hit := false
	if err := inst.Sys.SendPointToPoint(3, 3, 100, func() { hit = true }); err != nil {
		t.Fatal(err)
	}
	inst.Eng.Run()
	if !hit {
		t.Error("same-node p2p did not complete")
	}
	if err := inst.Sys.SendPointToPoint(0, 1, 0, nil); err == nil {
		t.Error("expected error for zero-size p2p")
	}
}

// The Priority policy drives a full training run to completion
// deterministically.
func TestTrainingWithPriorityPolicy(t *testing.T) {
	tp := torus(t, 2, 2, 1, topology.DefaultTorusConfig())
	cfg := config.DefaultSystem()
	cfg.SchedulingPolicy = config.Priority
	inst, err := NewInstance(tp, cfg, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for l := 4; l >= 0; l-- {
		if _, err := inst.Sys.IssueCollectivePriority(collectives.AllReduce, 1<<20,
			"wg", l, func(*Handle) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	inst.Eng.Run()
	if done != 5 {
		t.Fatalf("%d of 5 priority collectives completed", done)
	}
}
