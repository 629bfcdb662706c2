package oracle_test

// White-box checks of the oracle itself: its independent phase compiler
// must agree with internal/collectives field-for-field, and its validity
// preconditions must be enforced loudly. The α-β Bounds are checked in
// bounds_test.go; the zero-tolerance differential corpus against the
// simulator lives in internal/collectives/conservation_test.go.

import (
	"fmt"
	"strings"
	"testing"

	"astrasim/internal/cli"
	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/oracle"
)

var oracleTopos = []string{
	"1x8x1", "2x2x2", "2x4x2", "2x2x2x2", "a2a:2x4", "sw:4x2", "so:2x2x1/2",
}

var oracleOps = []collectives.Op{
	collectives.None, collectives.ReduceScatter, collectives.AllGather,
	collectives.AllReduce, collectives.AllToAll,
}

// The oracle's independent phase compiler must produce exactly the phase
// lists the production compiler does — same dimensions, ops, sizes,
// direct flags, and bit-identical scales — across the whole grid. The two
// are separate implementations on purpose; this pins them together.
func TestCompileMatchesCollectives(t *testing.T) {
	for _, spec := range oracleTopos {
		for _, alg := range []config.Algorithm{config.Baseline, config.Enhanced} {
			for _, op := range oracleOps {
				t.Run(fmt.Sprintf("%s/%v/%v", spec, alg, op), func(t *testing.T) {
					cfg := config.DefaultSystem()
					topo, err := cli.BuildTopology(spec, cli.DefaultTopologyOptions(), &cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := collectives.Compile(op, topo, alg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := oracle.CompilePhases(op, topo, alg)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("oracle compiled %d phases, collectives %d", len(got), len(want))
					}
					for i := range got {
						g, w := got[i], want[i]
						if g.Dim != w.Dim || g.Op != w.Op || g.Direct != w.Direct || g.Size != w.Size || g.Scale != w.Scale {
							t.Fatalf("phase %d: oracle %+v, collectives %+v", i, g, w)
						}
						if g.NumSteps() != w.NumSteps() {
							t.Fatalf("phase %d: oracle %d steps, collectives %d", i, g.NumSteps(), w.NumSteps())
						}
						for s := 0; s < g.NumSteps(); s++ {
							for _, bytes := range []int64{1, 1000, 1 << 20} {
								if gb, wb := g.StepBytes(s, bytes), w.StepBytes(s, bytes); gb != wb {
									t.Fatalf("phase %d step %d bytes %d: oracle %d, collectives %d", i, s, bytes, gb, wb)
								}
							}
						}
					}
				})
			}
		}
	}
}

// Predict must refuse configurations outside its exactness domain with
// actionable errors rather than returning a silently wrong number.
func TestPredictRefusesOutsideValidityDomain(t *testing.T) {
	cfg := config.DefaultSystem()
	topo, err := cli.BuildTopology("2x2x2", cli.DefaultTopologyOptions(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	net := config.DefaultNetwork()

	t.Run("normal injection", func(t *testing.T) {
		bad := cfg
		bad.InjectionPolicy = config.NormalInjection
		if _, err := oracle.NewModel(topo, bad, net); err == nil || !strings.Contains(err.Error(), "injection") {
			t.Fatalf("want injection-policy error, got %v", err)
		}
	})
	t.Run("multi-chunk", func(t *testing.T) {
		m, err := oracle.NewModel(topo, cfg, net) // default 64-way splits
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Predict(collectives.AllReduce, 1<<20); err == nil || !strings.Contains(err.Error(), "chunk") {
			t.Fatalf("want multi-chunk refusal, got %v", err)
		}
		// The same size is fine through the bounds API.
		if _, _, err := m.PredictBounds(collectives.AllReduce, 1<<20); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("non-positive size", func(t *testing.T) {
		single := cfg
		single.PreferredSetSplits = 1
		m, err := oracle.NewModel(topo, single, net)
		if err != nil {
			t.Fatal(err)
		}
		for _, bytes := range []int64{0, -5} {
			if _, err := m.Predict(collectives.AllReduce, bytes); err == nil {
				t.Fatalf("Predict(%d) succeeded, want error", bytes)
			}
			if _, _, err := m.PredictBounds(collectives.AllReduce, bytes); err == nil {
				t.Fatalf("PredictBounds(%d) succeeded, want error", bytes)
			}
		}
	})
}

// A topology with no active dimensions compiles to zero phases and
// completes instantly, mirroring the simulator's immediate-completion
// path for single-node systems.
func TestPredictZeroPhaseCollective(t *testing.T) {
	cfg := config.DefaultSystem()
	cfg.PreferredSetSplits = 1
	topo, err := cli.BuildTopology("1x1x1", cli.DefaultTopologyOptions(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := oracle.NewModel(topo, cfg, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict(collectives.AllReduce, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Cycles != 0 || len(pred.Phases) != 0 || len(pred.PhaseEnds) != 0 {
		t.Fatalf("zero-phase prediction = %+v, want empty", pred)
	}
}

// Straggler factors must rescale predictions the same way on both sides
// of the differential check: a straggling node strictly slows every
// phased collective down.
func TestStragglerSlowsPrediction(t *testing.T) {
	cfg := config.DefaultSystem()
	cfg.PreferredSetSplits = 1
	topo, err := cli.BuildTopology("2x2x2", cli.DefaultTopologyOptions(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	net := config.DefaultNetwork()
	base, err := oracle.NewModel(topo, cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := oracle.NewModel(topo, cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	if err := slow.SetNodeStragglerFactor(3, 10); err != nil {
		t.Fatal(err)
	}
	for _, op := range []collectives.Op{collectives.AllReduce, collectives.AllToAll} {
		b, err := base.Predict(op, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		s, err := slow.Predict(op, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if s.Cycles <= b.Cycles {
			t.Fatalf("%v: straggler prediction %d not slower than nominal %d", op, s.Cycles, b.Cycles)
		}
	}
}
