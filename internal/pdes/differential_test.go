package pdes_test

// Differential verification of intra-run parallelism: a partitioned run
// (IntraParallel > 0) must be BYTE-IDENTICAL to the serial packet engine
// — same completion cycles, same per-phase breakdowns, same per-class
// byte totals, same per-link counters, same delivered-message count — at
// every worker count, over the same corpus the backend-duality suite
// uses. Unlike the fast backend, pdes is not an approximation anywhere:
// it executes the identical packet semantics on partitioned engines, so
// exactness holds on congested multi-chunk runs too (no "validity
// domain"), and both with and without packet trains. The serial reference
// itself runs with trains off, and the serial run with trains on must
// match it too: trains are exact on the serial engine as well.

import (
	"fmt"
	"runtime"
	"testing"

	"astrasim/internal/audit"
	"astrasim/internal/cli"
	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/noc"
	"astrasim/internal/system"
)

var corpusTopos = []string{
	"1x8x1",      // single-dimension ring
	"2x2x2",      // 3D torus, all dims active
	"2x4x2",      // asymmetric 3D torus
	"2x2x2x2",    // 4D torus extension
	"a2a:2x4",    // hierarchical alltoall
	"sw:4x2",     // switch-based scale-up
	"so:2x2x1/2", // scale-out spine: exercises mixed-class paths
	// Compositional hierarchy: switch (halving-doubling) + ring dims.
	"hier:ring2,sw4",
}

var corpusOps = []collectives.Op{
	collectives.ReduceScatter, collectives.AllGather,
	collectives.AllReduce, collectives.AllToAll,
}

// runResult is everything observable about one run that the differential
// suite compares byte-for-byte.
type runResult struct {
	h         *system.Handle
	bytes     [3]int64
	delivered uint64
	links     []noc.LinkDebugState
}

// runPacket executes one collective on a fresh audited packet-backend
// instance with the given IntraParallel setting (0 = serial engine).
// collapse toggles packet trains.
func runPacket(t *testing.T, spec string, alg config.Algorithm, splits int,
	op collectives.Op, setBytes int64, workers int, collapse bool) runResult {
	t.Helper()
	cfg := config.DefaultSystem()
	cfg.Algorithm = alg
	cfg.PreferredSetSplits = splits
	cfg.IntraParallel = workers
	topo, err := cli.BuildTopology(spec, cli.DefaultTopologyOptions(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := system.NewInstance(topo, cfg, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	if want := workers > 0; inst.Net.Partitioned() != want {
		t.Fatalf("partitioned=%v, want %v (IntraParallel=%d)", inst.Net.Partitioned(), want, workers)
	}
	inst.Net.SetFlowCollapse(collapse)
	aud := audit.Attach(inst.Sys)
	h, err := inst.Sys.IssueCollective(op, setBytes, op.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	inst.Eng.Run()
	if !h.Done() {
		t.Fatalf("IntraParallel=%d: collective did not complete", workers)
	}
	if err := aud.Report().Err(); err != nil {
		t.Fatalf("IntraParallel=%d: audit: %v", workers, err)
	}
	intra, inter, so := inst.Net.TotalBytesByClass()
	return runResult{h: h, bytes: [3]int64{intra, inter, so}, delivered: inst.Net.DeliveredMessages, links: inst.Net.DebugLinks()}
}

// mustMatch asserts got is byte-identical to the serial reference want.
// PeakQueue is compared too: packet trains reconstruct it exactly from
// the replayed carry chain.
func mustMatch(t *testing.T, label string, want, got runResult) {
	t.Helper()
	if got.h.Duration() != want.h.Duration() {
		t.Fatalf("%s: ran %d cycles, serial ran %d (delta %d)",
			label, got.h.Duration(), want.h.Duration(), int64(got.h.Duration())-int64(want.h.Duration()))
	}
	if got.bytes != want.bytes {
		t.Fatalf("%s: carried %v bytes per class, serial %v", label, got.bytes, want.bytes)
	}
	if got.delivered != want.delivered {
		t.Fatalf("%s: delivered %d messages, serial %d", label, got.delivered, want.delivered)
	}
	if got.h.NumPhases() != want.h.NumPhases() {
		t.Fatalf("%s: %d phases, serial %d", label, got.h.NumPhases(), want.h.NumPhases())
	}
	for i := 0; i <= want.h.NumPhases(); i++ {
		if gq, wq := got.h.AvgQueueDelay(i), want.h.AvgQueueDelay(i); gq != wq {
			t.Fatalf("%s: phase %d queue delay %v, serial %v", label, i, gq, wq)
		}
		if gn, wn := got.h.AvgNetworkDelay(i), want.h.AvgNetworkDelay(i); gn != wn {
			t.Fatalf("%s: phase %d network delay %v, serial %v", label, i, gn, wn)
		}
	}
	if len(got.links) != len(want.links) {
		t.Fatalf("%s: %d links, serial %d", label, len(got.links), len(want.links))
	}
	for i := range want.links {
		if got.links[i] != want.links[i] {
			t.Fatalf("%s: link %d state %+v, serial %+v", label, i, got.links[i], want.links[i])
		}
	}
}

// workerCounts are the pool widths the acceptance criteria name: 1, 2,
// and NumCPU (deduplicated).
func workerCounts() []int {
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n != 1 && n != 2 {
		counts = append(counts, n)
	}
	return counts
}

// TestIntraParallelExactAcrossConfigs replays the full 112-config
// differential corpus (7 topologies x 2 algorithms x 4 collectives x 2
// sizes) serially and partitioned at every acceptance worker count,
// requiring byte-identical results throughout.
func TestIntraParallelExactAcrossConfigs(t *testing.T) {
	sizes := []int64{4096, 1 << 20}
	counts := workerCounts()
	configs := 0
	for _, spec := range corpusTopos {
		for _, alg := range []config.Algorithm{config.Baseline, config.Enhanced} {
			for _, op := range corpusOps {
				for _, setBytes := range sizes {
					configs++
					t.Run(fmt.Sprintf("%s/%v/%v/%d", spec, alg, op, setBytes), func(t *testing.T) {
						serial := runPacket(t, spec, alg, 1, op, setBytes, 0, false)
						mustMatch(t, "serial/trains", serial, runPacket(t, spec, alg, 1, op, setBytes, 0, true))
						for _, w := range counts {
							par := runPacket(t, spec, alg, 1, op, setBytes, w, true)
							mustMatch(t, fmt.Sprintf("IntraParallel=%d", w), serial, par)
						}
					})
				}
			}
		}
	}
	if configs < 112 {
		t.Fatalf("differential corpus covers only %d configs, want >= 112", configs)
	}
}

// TestIntraParallelExactMultiChunk locks in the claim the fast backend
// cannot make: exactness survives congestion. With the default 64-way
// chunk split, dispatcher/LSQ concurrency interleaves traffic on shared
// links — and the partitioned run must still match the serial engine
// byte-for-byte, both with packet trains (later messages queue behind a
// live train) and with them disabled (pure event-by-event replay).
func TestIntraParallelExactMultiChunk(t *testing.T) {
	if testing.Short() {
		t.Skip("congested differential replay takes ~15s; skipped with -short (full depth runs in the dedicated CI race step)")
	}
	const setBytes = 4 << 20
	// 4x4x4 is the regression topology for cross-component tie ordering:
	// its chunked all-reduce produces events from different components
	// with identical (time, ctime, gen2) prefixes, which only order
	// consistently because serial mode stamps the same component labels
	// as the partitioned engines (both read them from noc.New's link plan).
	for _, spec := range []string{"1x8x1", "2x4x2", "4x4x4", "a2a:2x4", "sw:4x2", "so:2x2x1/2"} {
		for _, op := range []collectives.Op{collectives.AllReduce, collectives.AllToAll} {
			t.Run(fmt.Sprintf("%s/%v", spec, op), func(t *testing.T) {
				serial := runPacket(t, spec, config.Enhanced, 64, op, setBytes, 0, false)
				mustMatch(t, "serial/trains", serial, runPacket(t, spec, config.Enhanced, 64, op, setBytes, 0, true))
				for _, collapse := range []bool{true, false} {
					for _, w := range workerCounts() {
						par := runPacket(t, spec, config.Enhanced, 64, op, setBytes, w, collapse)
						mustMatch(t, fmt.Sprintf("IntraParallel=%d/collapse=%v", w, collapse), serial, par)
					}
				}
			})
		}
	}
}
