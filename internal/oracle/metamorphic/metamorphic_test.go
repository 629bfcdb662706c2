package metamorphic

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"astrasim/internal/collectives"
	"astrasim/internal/config"
)

// The full registry must hold over the seeded corpus — this is the
// standing CI property suite. Any failure prints its minimized
// reproduction, so a red run here is directly actionable.
func TestSuiteHoldsOnSeededCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("metamorphic corpus is slow")
	}
	corpus := Corpus(42, 14)
	failures, err := Run(Rules(), corpus, runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range failures {
		t.Errorf("%s", f)
	}
}

// The same registry must hold when the corpus runs on the
// congestion-unaware fast backend: every relation (bandwidth scaling,
// size scaling, symmetry, straggler monotonicity, algorithm dominance,
// retry-noop, oracle exactness) is a transport-independent property of
// the system layer, so a violation here isolates a fast-backend bug.
// Fault-dependent rules skip themselves (fault injection is packet-only).
func TestSuiteHoldsOnSeededCorpusFastBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("metamorphic corpus is slow")
	}
	corpus := Corpus(42, 14)
	for i := range corpus {
		corpus[i].Backend = config.FastBackend
	}
	failures, err := Run(Rules(), corpus, runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range failures {
		t.Errorf("%s", f)
	}
}

// A hand-picked smoke corpus small enough to run even under -short:
// every rule family fires on at least one case, so quick CI runs still
// execute every Check body end to end. The topologies are the smallest
// member of each family the full corpus draws from, and the byte sizes
// keep each simulation in the low milliseconds.
func TestSuiteHoldsOnSmokeCorpus(t *testing.T) {
	smoke := []Case{
		// Packet-backend cases keep the fault-dependent rules
		// (straggler/drop-rate/retry) exercised.
		{Topo: "2x2x1", Op: collectives.AllReduce, Alg: config.Baseline, Bytes: 8192, Splits: 1},
		{Topo: "1x8x1", Op: collectives.ReduceScatter, Alg: config.Enhanced, Bytes: 4096, Splits: 2},
		// Fast-backend cases cover the analytical transport path.
		{Topo: "a2a:2x2", Op: collectives.AllToAll, Alg: config.Baseline, Bytes: 8192, Splits: 1, Backend: config.FastBackend},
		{Topo: "sw:2x2", Op: collectives.AllGather, Alg: config.Baseline, Bytes: 8192, Splits: 1, Backend: config.FastBackend},
		// Two same-kind, same-class (but unequal) package dims so the
		// hier-dim-permutation rule has a pair to swap.
		{Topo: "hier:ring2,ring4,ring2", Op: collectives.AllReduce, Alg: config.Enhanced, Bytes: 8192, Splits: 1, Backend: config.FastBackend},
	}
	failures, err := Run(Rules(), smoke, runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range failures {
		t.Errorf("%s", f)
	}
}

// The ISSUE acceptance bar: at least 6 distinct rule families.
func TestRegistryHasAtLeastSixFamilies(t *testing.T) {
	rules := Rules()
	names := map[string]bool{}
	for _, r := range rules {
		if r.Name == "" || r.Doc == "" || r.Check == nil {
			t.Fatalf("rule %+v is incomplete", r)
		}
		if names[r.Name] {
			t.Fatalf("duplicate rule name %q", r.Name)
		}
		names[r.Name] = true
	}
	if len(names) < 6 {
		t.Fatalf("registry has %d rule families, want >= 6", len(names))
	}
}

// The same (seed, n) must always produce the same corpus.
func TestCorpusIsDeterministic(t *testing.T) {
	a := Corpus(7, 20)
	b := Corpus(7, 20)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Corpus(7, 20) differs between calls")
	}
	c := Corpus(8, 20)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical corpora")
	}
	for _, cs := range a {
		if cs.Bytes < 4096 || cs.Bytes >= 1<<20 {
			t.Fatalf("corpus bytes %d outside [4096, 1<<20)", cs.Bytes)
		}
	}
}

// The failure report must be identical for any worker count: a canary
// rule that always fails (with a case-dependent message) must yield
// deeply equal reports at workers=1 and workers=5.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	canary := Rule{
		Name: "canary-always-fails",
		Doc:  "test-only rule that fails on every case",
		Check: func(c Case) error {
			return fmt.Errorf("canary on bytes=%d splits=%d", c.Bytes, c.Splits)
		},
	}
	corpus := Corpus(3, 9)
	serial, err := Run([]Rule{canary}, corpus, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallelRun, err := Run([]Rule{canary}, corpus, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(corpus) {
		t.Fatalf("canary produced %d failures over %d cases", len(serial), len(corpus))
	}
	if !reflect.DeepEqual(serial, parallelRun) {
		t.Fatalf("failure reports differ across worker counts:\n  workers=1: %v\n  workers=5: %v", serial, parallelRun)
	}
}

// The minimizer must shrink a failing case to the smallest variant that
// still fails and report the shrink as a config diff. A canary that
// fails iff bytes >= 8192 must minimize to exactly 8192 bytes (the
// halving sequence from any corpus size lands there before crossing the
// threshold), with splits and algorithm fully reduced.
func TestMinimizerShrinksFailures(t *testing.T) {
	threshold := Rule{
		Name: "canary-threshold",
		Doc:  "test-only rule that fails iff bytes >= 8192",
		Check: func(c Case) error {
			if c.Bytes >= 8192 {
				return fmt.Errorf("bytes %d over threshold", c.Bytes)
			}
			return nil
		},
	}
	orig := Case{Topo: "1x8x1", Op: 0, Alg: 1, Bytes: 8192 << 4, Splits: 64}
	failures, err := Run([]Rule{threshold}, []Case{orig}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 {
		t.Fatalf("got %d failures, want 1", len(failures))
	}
	f := failures[0]
	if f.Minimized.Bytes != 8192 {
		t.Fatalf("minimized bytes = %d, want 8192", f.Minimized.Bytes)
	}
	if f.Minimized.Splits != 1 {
		t.Fatalf("minimized splits = %d, want 1", f.Minimized.Splits)
	}
	if !strings.Contains(f.Diff, "bytes") || !strings.Contains(f.Diff, "splits") {
		t.Fatalf("diff %q does not record the bytes and splits shrinks", f.Diff)
	}
	if !strings.Contains(f.Reason, "8192") {
		t.Fatalf("reason %q is not the minimized case's message", f.Reason)
	}
}

// Rules that guard on topology shape must cleanly skip inapplicable
// cases instead of failing or running a meaningless comparison.
func TestShapeGuardedRulesSkipInapplicableCases(t *testing.T) {
	direct := Case{Topo: "a2a:2x4", Op: 2, Alg: 0, Bytes: 65536, Splits: 1}
	if err := checkRingRotationInvariance(direct); err != nil {
		t.Fatalf("ring-rotation on direct topology: %v", err)
	}
	flat := Case{Topo: "1x8x1", Op: 2, Alg: 0, Bytes: 65536, Splits: 1}
	if err := checkEnhancedVsBaseline(flat); err != nil {
		t.Fatalf("enhanced-vs-baseline on single-ring topology: %v", err)
	}
}
