package fastnet_test

// Differential verification of the backend duality: the congestion-unaware
// fast backend (noc's unbounded model, noc.NewFast) against the
// congestion-aware packet backend (noc.New), and both against the
// closed-form oracle. This directory holds only tests: both backends'
// code is in internal/noc.
//
// On the oracle's uncongested validity domain (single-chunk, aggressive
// injection, fault-free — the same 112-config corpus as the collectives
// package's TestOracleExactAcrossConfigs) all three must agree EXACTLY,
// zero tolerance: end-to-end cycles, per-phase breakdowns, and per-class
// byte totals. The two backends share the per-link wire state, the packet
// plan and the serialization kernel, but each has its own send path, so
// any drift in either path's arithmetic or event ordering fails here.
//
// Outside that domain (the default 64-way chunk split, where dispatcher
// and LSQ concurrency interleave traffic) exactness is not guaranteed —
// only bounded divergence, because the paper-configuration buffers are
// large enough that backpressure is rare.

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

// corpusTopos mirrors the conservation corpus: every topology family the
// simulator supports, including mixed-class scale-out paths.
var corpusTopos = []string{
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

var corpusOps = []collectives.Op{
	collectives.ReduceScatter, collectives.AllGather,
	collectives.AllReduce, collectives.AllToAll,
}

// runBackend executes one collective on a fresh audited instance of the
// given backend and returns its handle plus the per-class byte totals.
func runBackend(t *testing.T, backend config.Backend, spec string, alg config.Algorithm,
	splits int, op collectives.Op, setBytes int64) (*system.Handle, [3]int64) {
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
	if got := inst.Net.Backend(); got != backend {
		t.Fatalf("NewInstance built a %v backend, want %v", got, backend)
	}
	aud := audit.Attach(inst.Sys)
	h, err := inst.Sys.IssueCollective(op, setBytes, op.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	inst.Eng.Run()
	if !h.Done() {
		t.Fatalf("%v backend: collective did not complete", backend)
	}
	if err := aud.Report().Err(); err != nil {
		t.Fatalf("%v backend: %v", backend, err)
	}
	intra, inter, so := inst.Net.TotalBytesByClass()
	return h, [3]int64{intra, inter, so}
}

// TestFastExactAcrossConfigs is the exactness half of the differential
// harness: over the full uncongested corpus, fast-mode completion cycles,
// per-phase queue/network breakdowns, and per-class link bytes must equal
// the packet backend's — and both must equal the oracle's Predict — with
// zero tolerance.
func TestFastExactAcrossConfigs(t *testing.T) {
	sizes := []int64{4096, 1 << 20}
	configs := 0
	for _, spec := range corpusTopos {
		for _, alg := range []config.Algorithm{config.Baseline, config.Enhanced} {
			for _, op := range corpusOps {
				for _, setBytes := range sizes {
					configs++
					t.Run(fmt.Sprintf("%s/%v/%v/%d", spec, alg, op, setBytes), func(t *testing.T) {
						pkt, pktBytes := runBackend(t, config.PacketBackend, spec, alg, 1, op, setBytes)
						fast, fastBytes := runBackend(t, config.FastBackend, spec, alg, 1, op, setBytes)

						if fast.Duration() != pkt.Duration() {
							t.Fatalf("fast backend ran %d cycles, packet backend %d (delta %d)",
								fast.Duration(), pkt.Duration(), int64(fast.Duration())-int64(pkt.Duration()))
						}
						if fastBytes != pktBytes {
							t.Fatalf("fast backend carried %v bytes per class, packet backend %v",
								fastBytes, pktBytes)
						}
						if fast.NumPhases() != pkt.NumPhases() {
							t.Fatalf("fast backend compiled %d phases, packet backend %d",
								fast.NumPhases(), pkt.NumPhases())
						}
						for i := 0; i <= fast.NumPhases(); i++ {
							if fq, pq := fast.AvgQueueDelay(i), pkt.AvgQueueDelay(i); fq != pq {
								t.Fatalf("phase %d queue delay: fast %v, packet %v", i, fq, pq)
							}
							if fn, pn := fast.AvgNetworkDelay(i), pkt.AvgNetworkDelay(i); fn != pn {
								t.Fatalf("phase %d network delay: fast %v, packet %v", i, fn, pn)
							}
						}

						// Both backends must land exactly on the oracle's
						// closed-form prediction (fast mode is that
						// recurrence run live, so this is the acceptance
						// identity fast == Predict, zero tolerance).
						cfg := config.DefaultSystem()
						cfg.Algorithm = alg
						cfg.PreferredSetSplits = 1
						topo, err := cli.BuildTopology(spec, cli.DefaultTopologyOptions(), &cfg)
						if err != nil {
							t.Fatal(err)
						}
						m, err := oracle.NewModel(topo, cfg, config.DefaultNetwork())
						if err != nil {
							t.Fatal(err)
						}
						pred, err := m.Predict(op, setBytes)
						if err != nil {
							t.Fatal(err)
						}
						if pred.Cycles != fast.Duration() {
							t.Fatalf("oracle predicted %d cycles, fast backend ran %d (delta %d)",
								pred.Cycles, fast.Duration(), int64(pred.Cycles)-int64(fast.Duration()))
						}
					})
				}
			}
		}
	}
	if configs < 110 {
		t.Fatalf("differential corpus covers only %d configs, want >= 110", configs)
	}
}

// TestFastBoundedDivergenceMultiChunk is the approximation half: with the
// default 64-way chunk split (dispatcher and LSQ concurrency active, so
// outside the oracle's exactness domain) the fast backend must stay within
// a small relative band of the packet backend. The Table IV buffers hold
// tens of thousands of packets, so backpressure — the only semantic the
// fast backend drops — is rare at these scales, and the band is tight.
func TestFastBoundedDivergenceMultiChunk(t *testing.T) {
	const setBytes = 4 << 20
	const maxRel = 0.05 // 5% band
	for _, spec := range []string{"2x4x2", "a2a:2x4", "sw:4x2"} {
		for _, op := range []collectives.Op{collectives.AllReduce, collectives.AllToAll} {
			t.Run(fmt.Sprintf("%s/%v", spec, op), func(t *testing.T) {
				pkt, pktBytes := runBackend(t, config.PacketBackend, spec, config.Enhanced, 64, op, setBytes)
				fast, fastBytes := runBackend(t, config.FastBackend, spec, config.Enhanced, 64, op, setBytes)
				if fastBytes != pktBytes {
					t.Fatalf("fast backend carried %v bytes per class, packet backend %v",
						fastBytes, pktBytes)
				}
				fd, pd := float64(fast.Duration()), float64(pkt.Duration())
				if rel := (fd - pd) / pd; rel > maxRel || rel < -maxRel {
					t.Fatalf("fast backend ran %d cycles, packet backend %d: divergence %.2f%% exceeds %.0f%%",
						fast.Duration(), pkt.Duration(), 100*rel, 100*maxRel)
				}
			})
		}
	}
}
