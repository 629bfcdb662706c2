package collectives_test

// Conservation property test (external package: it drives the timed
// system/network layers and the audit subsystem, which themselves import
// collectives): for every collective op x topology x algorithm drawn from
// the experiment configurations, three independent byte accountings must
// agree —
//
//  1. the analytic per-node traffic model TotalCollectiveBytesPerNode,
//  2. the timed simulation's injected bytes as observed by the auditor,
//  3. the chunk schedule's own ledger (Handle.ScheduledTxBytes),
//
// and the untimed reference executor must compute the correct all-reduce
// result over the very same compiled phase lists the timed run executes.

import (
	"fmt"
	"testing"

	"astrasim/internal/audit"
	"astrasim/internal/cli"
	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/oracle"
	"astrasim/internal/system"
)

var conservationTopos = []string{
	"1x8x1",      // single-dimension ring
	"2x2x2",      // 3D torus, all dims active
	"2x4x2",      // asymmetric 3D torus
	"2x2x2x2",    // 4D torus extension
	"a2a:2x4",    // hierarchical alltoall
	"sw:4x2",     // switch-based scale-up
	"so:2x2x1/2", // scale-out spine: exercises mixed-class paths
	// Compositional hierarchies: every dimension kind, mixed orders.
	"hier:sw4,fc3,ring4",     // DGX-like switch + FC + ring composition
	"hier:ring2,sw8",         // halving-doubling through a pow2 switch dim
	"hier:fc4,ring2x1,sw2",   // FC-first with an explicit lane count
	"hier:ring2,ring4,ring2", // all-ring composition (an N-D torus)
}

func TestByteConservationAcrossConfigs(t *testing.T) {
	ops := []collectives.Op{
		collectives.ReduceScatter, collectives.AllGather,
		collectives.AllReduce, collectives.AllToAll,
	}
	const setBytes = 1 << 20
	for _, spec := range conservationTopos {
		for _, alg := range []config.Algorithm{config.Baseline, config.Enhanced} {
			cfg := config.DefaultSystem()
			cfg.Algorithm = alg
			topo, err := cli.BuildTopology(spec, cli.DefaultTopologyOptions(), &cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range ops {
				t.Run(fmt.Sprintf("%s/%v/%v", spec, alg, op), func(t *testing.T) {
					inst, err := system.NewInstance(topo, cfg, config.DefaultNetwork())
					if err != nil {
						t.Fatal(err)
					}
					aud := audit.Attach(inst.Sys)
					done := false
					h, err := inst.Sys.IssueCollective(op, setBytes, op.String(), func(*system.Handle) { done = true })
					if err != nil {
						t.Fatal(err)
					}
					inst.Eng.Run()
					if !done {
						t.Fatal("collective did not complete")
					}

					// The auditor's own invariants: conservation,
					// quiescence, monotonic stats.
					rep := aud.Report()
					if err := rep.Err(); err != nil {
						t.Fatal(err)
					}

					// Timed injection must equal the chunk schedule
					// exactly...
					if rep.InjectedBytes != h.ScheduledTxBytes() {
						t.Fatalf("injected %d bytes, chunk schedule says %d",
							rep.InjectedBytes, h.ScheduledTxBytes())
					}
					// ...and match the analytic model within the
					// per-message truncation and per-chunk split slack.
					analytic := collectives.TotalCollectiveBytesPerNode(h.Phases(), setBytes) *
						int64(topo.NumNPUs())
					tol := h.ScheduledMessages() + h.ScheduledMessages()/int64(max(h.NumChunks(), 1)) + 1
					if d := rep.InjectedBytes - analytic; d > tol || d < -tol {
						t.Fatalf("injected %d vs analytic %d: off by %d (tolerance %d)",
							rep.InjectedBytes, analytic, d, tol)
					}
					if h.NumPhases() > 0 && rep.InjectedBytes == 0 {
						t.Fatal("phased collective injected no traffic")
					}
				})
			}
		}
	}
}

// The compiled phase lists the timed runs above execute must also compute
// the right answer: the untimed reference executor's all-reduce result is
// the elementwise global sum on every node, for every topology x algorithm
// in the same grid.
func TestUntimedExecutorAgreesAcrossConfigs(t *testing.T) {
	const L = 1 << 9 // divisible by every group size in the grid
	for _, spec := range conservationTopos {
		for _, alg := range []config.Algorithm{config.Baseline, config.Enhanced} {
			t.Run(fmt.Sprintf("%s/%v", spec, alg), func(t *testing.T) {
				cfg := config.DefaultSystem()
				topo, err := cli.BuildTopology(spec, cli.DefaultTopologyOptions(), &cfg)
				if err != nil {
					t.Fatal(err)
				}
				phases, err := collectives.Compile(collectives.AllReduce, topo, alg)
				if err != nil {
					t.Fatal(err)
				}
				n := topo.NumNPUs()
				initial := make([][]float64, n)
				want := make([]float64, L)
				for i := range initial {
					initial[i] = make([]float64, L)
					for j := range initial[i] {
						initial[i][j] = float64(i*7 + j%13)
						want[j] += initial[i][j]
					}
				}
				states, err := collectives.ExecuteData(phases, topo, initial)
				if err != nil {
					t.Fatal(err)
				}
				for i, s := range states {
					if s.Lo != 0 || s.Hi != L {
						t.Fatalf("node %d holds [%d,%d), want the full vector", i, s.Lo, s.Hi)
					}
					for j, v := range s.Vals {
						if v != want[j] {
							t.Fatalf("node %d elem %d = %v, want %v", i, j, v, want[j])
						}
					}
				}
			})
		}
	}
}

// Differential verification against the closed-form oracle: for every
// op x topology x algorithm x size in the corpus, the analytical model of
// internal/oracle must predict the simulated end-to-end completion
// cycles EXACTLY — zero tolerance — in the uncongested single-chunk
// regime. The two numbers come from fully independent code paths (the
// event-driven system/noc layers vs. the oracle's arithmetic
// recurrence), so any drift in either one fails here.
func TestOracleExactAcrossConfigs(t *testing.T) {
	ops := []collectives.Op{
		collectives.ReduceScatter, collectives.AllGather,
		collectives.AllReduce, collectives.AllToAll,
	}
	sizes := []int64{4096, 1 << 20}
	configs := 0
	for _, spec := range conservationTopos {
		for _, alg := range []config.Algorithm{config.Baseline, config.Enhanced} {
			cfg := config.DefaultSystem()
			cfg.Algorithm = alg
			cfg.PreferredSetSplits = 1 // single-chunk regime
			topo, err := cli.BuildTopology(spec, cli.DefaultTopologyOptions(), &cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range ops {
				for _, setBytes := range sizes {
					configs++
					t.Run(fmt.Sprintf("%s/%v/%v/%d", spec, alg, op, setBytes), func(t *testing.T) {
						net := config.DefaultNetwork()
						inst, err := system.NewInstance(topo, cfg, net)
						if err != nil {
							t.Fatal(err)
						}
						aud := audit.Attach(inst.Sys)
						h, err := inst.Sys.IssueCollective(op, setBytes, op.String(), nil)
						if err != nil {
							t.Fatal(err)
						}
						inst.Eng.Run()
						if !h.Done() {
							t.Fatal("collective did not complete")
						}
						if err := aud.Report().Err(); err != nil {
							t.Fatal(err)
						}

						m, err := oracle.NewModel(topo, cfg, net)
						if err != nil {
							t.Fatal(err)
						}
						pred, err := m.Predict(op, setBytes)
						if err != nil {
							t.Fatal(err)
						}
						if pred.Cycles != h.Duration() {
							t.Fatalf("oracle predicted %d cycles, simulator ran %d (delta %d)",
								pred.Cycles, h.Duration(), int64(pred.Cycles)-int64(h.Duration()))
						}
						if len(pred.Phases) != h.NumPhases() {
							t.Fatalf("oracle compiled %d phases, simulator %d", len(pred.Phases), h.NumPhases())
						}
						if h.NumPhases() > 0 {
							if len(pred.PhaseEnds) != h.NumPhases() {
								t.Fatalf("oracle reported %d phase ends for %d phases", len(pred.PhaseEnds), h.NumPhases())
							}
							if last := pred.PhaseEnds[len(pred.PhaseEnds)-1]; last != pred.Cycles {
								t.Fatalf("last phase end %d != completion %d", last, pred.Cycles)
							}
						}
					})
				}
			}
		}
	}
	// The acceptance bar for this corpus: at least 110 distinct configs.
	if configs < 110 {
		t.Fatalf("oracle corpus covers only %d configs, want >= 110", configs)
	}
}

// With dispatcher concurrency enabled (the default 64-way set split),
// exact prediction is out of scope, but the oracle's documented bound
// must hold: the simulated completion lies within [largest solo-chunk
// prediction, sum of solo-chunk predictions].
func TestOracleBoundsWithDispatcherConcurrency(t *testing.T) {
	ops := []collectives.Op{
		collectives.ReduceScatter, collectives.AllGather,
		collectives.AllReduce, collectives.AllToAll,
	}
	const setBytes = 1 << 20
	for _, spec := range conservationTopos {
		for _, alg := range []config.Algorithm{config.Baseline, config.Enhanced} {
			cfg := config.DefaultSystem()
			cfg.Algorithm = alg
			topo, err := cli.BuildTopology(spec, cli.DefaultTopologyOptions(), &cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range ops {
				t.Run(fmt.Sprintf("%s/%v/%v", spec, alg, op), func(t *testing.T) {
					net := config.DefaultNetwork()
					inst, err := system.NewInstance(topo, cfg, net)
					if err != nil {
						t.Fatal(err)
					}
					h, err := inst.Sys.IssueCollective(op, setBytes, op.String(), nil)
					if err != nil {
						t.Fatal(err)
					}
					inst.Eng.Run()
					if !h.Done() {
						t.Fatal("collective did not complete")
					}
					m, err := oracle.NewModel(topo, cfg, net)
					if err != nil {
						t.Fatal(err)
					}
					lower, upper, err := m.PredictBounds(op, setBytes)
					if err != nil {
						t.Fatal(err)
					}
					if h.NumPhases() == 0 {
						return
					}
					if lower == 0 || upper < lower {
						t.Fatalf("degenerate bounds [%d, %d]", lower, upper)
					}
					if d := h.Duration(); d < lower || d > upper {
						t.Fatalf("simulated %d cycles outside oracle bounds [%d, %d]", d, lower, upper)
					}
				})
			}
		}
	}
}

// TestHierEquivalentToTorusND pins the two spellings of the 4D torus
// against each other at the simulation level: the "2x2x2x2" spec
// (cli.TopologyOptions.TorusSpecs) and the "hier:ring2,ring2,ring2,ring2"
// composition (cli.ParseHierSpec) must run every collective
// byte-identically — same completion cycles, same injected traffic — on
// both network backends, with and without chunk splitting. The structural
// half, digests recorded from the standalone N-D torus type both spellings
// replaced, lives in internal/topology. Zero tolerance: any divergence
// means one grammar drifted from the other.
func TestHierEquivalentToTorusND(t *testing.T) {
	ops := []collectives.Op{
		collectives.ReduceScatter, collectives.AllGather,
		collectives.AllReduce, collectives.AllToAll,
	}
	type obs struct {
		dur   uint64
		bytes int64
	}
	run := func(t *testing.T, spec string, alg config.Algorithm, backend config.Backend,
		splits int, op collectives.Op, setBytes int64) obs {
		t.Helper()
		cfg := config.DefaultSystem()
		cfg.Algorithm = alg
		cfg.Backend = backend
		cfg.PreferredSetSplits = splits
		topo, err := cli.BuildTopology(spec, cli.DefaultTopologyOptions(), &cfg)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := system.NewInstance(topo, cfg, config.DefaultNetwork())
		if err != nil {
			t.Fatal(err)
		}
		aud := audit.Attach(inst.Sys)
		h, err := inst.Sys.IssueCollective(op, setBytes, op.String(), nil)
		if err != nil {
			t.Fatal(err)
		}
		inst.Eng.Run()
		if !h.Done() {
			t.Fatalf("%s: collective did not complete", spec)
		}
		rep := aud.Report()
		if err := rep.Err(); err != nil {
			t.Fatalf("%s: audit: %v", spec, err)
		}
		return obs{dur: uint64(h.Duration()), bytes: rep.InjectedBytes}
	}
	const torusSpec, hierSpec = "2x2x2x2", "hier:ring2,ring2,ring2,ring2"
	for _, backend := range []config.Backend{config.PacketBackend, config.FastBackend} {
		for _, alg := range []config.Algorithm{config.Baseline, config.Enhanced} {
			for _, splits := range []int{1, 4} {
				for _, op := range ops {
					for _, setBytes := range []int64{4096, 1 << 20} {
						t.Run(fmt.Sprintf("%v/%v/splits%d/%v/%d", backend, alg, splits, op, setBytes), func(t *testing.T) {
							torus := run(t, torusSpec, alg, backend, splits, op, setBytes)
							hier := run(t, hierSpec, alg, backend, splits, op, setBytes)
							if hier != torus {
								t.Fatalf("hier ran %d cycles/%d bytes, torus %d cycles/%d bytes",
									hier.dur, hier.bytes, torus.dur, torus.bytes)
							}
						})
					}
				}
			}
		}
	}
}
