package oracle_test

// Checks of the α-β Bounds: the per-phase bandwidth and latency terms,
// recorded values on fabric families the extvalidate golden does not
// cover, and cross-validation against the event-driven simulator.

import (
	"fmt"
	"testing"

	"astrasim/internal/cli"
	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/oracle"
	"astrasim/internal/system"
)

// boundsOf builds spec and returns the Bounds of op over bytes.
func boundsOf(t *testing.T, spec string, alg config.Algorithm, op collectives.Op, bytes int64) oracle.Bounds {
	t.Helper()
	cfg := config.DefaultSystem()
	cfg.Algorithm = alg
	topo, err := cli.BuildTopology(spec, cli.DefaultTopologyOptions(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := oracle.NewModel(topo, cfg, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Bounds(op, bytes)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// 1x8x1 all-reduce is one ring phase of 8 NPUs over 4 channels.
func TestPhaseBoundsBasics(t *testing.T) {
	b := boundsOf(t, "1x8x1", config.Baseline, collectives.AllReduce, 8<<20)
	// Bandwidth term: 2*(7/8)*8MB over 4 channels at 23.5 B/cycle.
	wantBW := 2.0 * 7 / 8 * float64(8<<20) / (4 * 25 * 0.94)
	if b.Lower < wantBW*0.99 || b.Lower > wantBW*1.01 {
		t.Errorf("lower = %.0f, want ~%.0f (bandwidth term)", b.Lower, wantBW)
	}
	if b.Estimate <= b.Lower {
		t.Errorf("estimate %.0f must exceed lower %.0f", b.Estimate, b.Lower)
	}
}

func TestPhaseBoundsLatencyDominates(t *testing.T) {
	b := boundsOf(t, "1x8x1", config.Baseline, collectives.AllReduce, 1024) // tiny message
	// 14 steps x (200 link + 1 router + 10 endpoint).
	want := 14.0 * 211
	if b.Lower != want {
		t.Errorf("latency-bound lower = %.0f, want %.0f", b.Lower, want)
	}
}

// Size-1 dimensions compile to no phases and cost nothing.
func TestSizeOnePhaseFree(t *testing.T) {
	if b := boundsOf(t, "1x1x1", config.Baseline, collectives.AllReduce, 1<<20); b != (oracle.Bounds{}) {
		t.Errorf("single-NPU bounds = %+v, want zero", b)
	}
}

// Values recorded from the standalone α-β package this method replaced,
// on the switched, scale-out and compositional families (1 MiB, Table IV
// network). RS and AG do not depend on the algorithm, so only the
// baseline is listed for them.
func TestBoundsRecorded(t *testing.T) {
	cases := []struct {
		spec            string
		alg             config.Algorithm
		op              collectives.Op
		lower, estimate float64
	}{
		{"hier:sw4,fc3,ring4", config.Baseline, collectives.ReduceScatter, 7436.68085106383, 11472.436170212766},
		{"hier:sw4,fc3,ring4", config.Baseline, collectives.AllGather, 7436.68085106383, 11472.436170212766},
		{"hier:sw4,fc3,ring4", config.Baseline, collectives.AllReduce, 59493.617021276594, 82903.36170212766},
		{"hier:sw4,fc3,ring4", config.Baseline, collectives.AllToAll, 29746.808510638297, 49807.97872340425},
		{"hier:sw4,fc3,ring4", config.Enhanced, collectives.AllReduce, 14873.36170212766, 25733.659574468085},
		{"so:2x2x1/2", config.Baseline, collectives.ReduceScatter, 11650.844444444445, 20657.99338061466},
		{"so:2x2x1/2", config.Baseline, collectives.AllGather, 11650.844444444445, 20657.993380614655},
		{"so:2x2x1/2", config.Baseline, collectives.AllReduce, 93206.75555555556, 116798.5853427896},
		{"so:2x2x1/2", config.Baseline, collectives.AllToAll, 46603.37777777778, 58399.2926713948},
		{"so:2x2x1/2", config.Enhanced, collectives.AllReduce, 46603.37777777778, 64617.67565011821},
		{"sw:4x2", config.Baseline, collectives.ReduceScatter, 5577.531914893617, 10364.68085106383},
		{"sw:4x2", config.Baseline, collectives.AllGather, 5577.531914893617, 10364.68085106383},
		{"sw:4x2", config.Baseline, collectives.AllReduce, 44620.255319148935, 54194.55319148936},
		{"sw:4x2", config.Baseline, collectives.AllToAll, 22310.127659574468, 27097.27659574468},
		{"sw:4x2", config.Enhanced, collectives.AllReduce, 11155.063829787234, 20729.36170212766},
	}
	for _, c := range cases {
		b := boundsOf(t, c.spec, c.alg, c.op, 1<<20)
		if b.Lower != c.lower || b.Estimate != c.estimate {
			t.Errorf("%s/%v/%v: bounds (%v, %v), want (%v, %v)",
				c.spec, c.alg, c.op, b.Lower, b.Estimate, c.lower, c.estimate)
		}
	}
}

// The event-driven simulator must never beat the lower bound and should
// stay within a constant factor of the estimate for uncongested single
// collectives at the default chunk split — cross-validation of the two
// models.
func TestSimulatorWithinAnalyticBounds(t *testing.T) {
	net := config.DefaultNetwork()
	for _, spec := range []string{"4x4x4", "1x8x1", "a2a:2x4", "2x2x2x2"} {
		for _, op := range []collectives.Op{collectives.AllReduce, collectives.AllToAll, collectives.ReduceScatter} {
			for _, alg := range []config.Algorithm{config.Baseline, config.Enhanced} {
				for _, size := range []int64{256 << 10, 8 << 20} {
					name := fmt.Sprintf("%s/%v/%v/%d", spec, op, alg, size)
					cfg := config.DefaultSystem()
					cfg.Algorithm = alg
					topo, err := cli.BuildTopology(spec, cli.DefaultTopologyOptions(), &cfg)
					if err != nil {
						t.Fatal(err)
					}
					h, err := system.RunCollective(topo, cfg, net, op, size)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					m, err := oracle.NewModel(topo, cfg, net)
					if err != nil {
						t.Fatal(err)
					}
					b, err := m.Bounds(op, size)
					if err != nil {
						t.Fatalf("%s: bounds: %v", name, err)
					}
					sim := float64(h.Duration())
					if sim < b.Lower {
						t.Errorf("%s: simulated %.0f beats the lower bound %.0f", name, sim, b.Lower)
					}
					if sim > 4*b.Estimate+20000 {
						t.Errorf("%s: simulated %.0f far above the estimate %.0f", name, sim, b.Estimate)
					}
				}
			}
		}
	}
}

func TestCollectiveBoundsEnhancedBelowBaseline(t *testing.T) {
	base := boundsOf(t, "4x4x4", config.Baseline, collectives.AllReduce, 64<<20)
	enh := boundsOf(t, "4x4x4", config.Enhanced, collectives.AllReduce, 64<<20)
	if enh.Lower >= base.Lower {
		t.Errorf("enhanced lower bound %.0f should beat baseline %.0f on asymmetric fabric",
			enh.Lower, base.Lower)
	}
}
