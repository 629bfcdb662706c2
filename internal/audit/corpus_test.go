package audit_test

import (
	"fmt"
	"runtime"
	"testing"

	"astrasim/internal/audit"
	"astrasim/internal/cli"
	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/experiments"
)

// TestAuditCorpus runs the entire evaluation corpus — every figure of the
// paper (Figs. 9-18) plus every extension study — with an auditor attached
// to each simulation instance, and requires zero invariant violations.
// This is the permanent regression net: any future change that loses
// bytes, strands a chunk in an LSQ, leaks an injection slot, or leaves a
// packet on a wire fails here, figure by figure.
func TestAuditCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus audit is minutes-long; skipped with -short")
	}
	// Quick-scale options keep the corpus tractable; every figure and
	// extension still runs, and the invariants are scale-independent.
	opts := experiments.Quick()
	opts.Workers = runtime.NumCPU()
	opts.Spec.Audit = true
	c := &audit.Collector{}
	opts.Audits = c

	figures := append(experiments.Figures(), experiments.Extensions()...)
	if len(figures) == 0 {
		t.Fatal("empty figure registry")
	}
	for _, f := range figures {
		if _, err := f.Run(opts); err != nil {
			t.Fatalf("%s: %v", f.ID, err)
		}
		if v := c.Violations(); len(v) > 0 {
			t.Fatalf("%s: invariant violations:\n  %s", f.ID, v[0])
		}
	}
	// Some figures reuse another figure's memoized result (fig15 reads
	// fig14's cached ResNet run), so instance creation is asserted in
	// aggregate, not per figure. Every point builds through Options.Spec,
	// so a point that bypasses it shows up as a lower count.
	if got, want := c.Runs(), corpusRuns; got != want {
		t.Fatalf("corpus audited %d instances, want %d", got, want)
	}
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("corpus audit failed:\n%v", v)
	}
	t.Log(c.Summary())
}

// corpusRuns is the number of simulation instances the quick corpus
// builds: one per point, the degradation study's baseline included, and
// one per distinct memoized ResNet-50 run.
const corpusRuns = 157

// TestAuditCorpusIntraParallel re-checks every conservation invariant
// under intra-run parallelism: the same byte-ledger, LSQ, slot and
// quiescence accounting must hold when the packet network is partitioned
// across shard engines (IntraParallel > 0) — the cross-engine outbox is
// an extra place bytes or packets could leak that the serial corpus
// never exercises.
func TestAuditCorpusIntraParallel(t *testing.T) {
	c := &audit.Collector{}
	for _, topo := range []string{"1x8x1", "2x4x2", "a2a:2x4", "sw:4x2", "so:2x2x1/2"} {
		for _, op := range []collectives.Op{collectives.AllReduce, collectives.AllToAll} {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%v/w%d", topo, op, workers), func(t *testing.T) {
					spec := cli.NewRunSpec(topo)
					spec.Audit = true
					spec.System.Algorithm = config.Enhanced
					spec.System.PreferredSetSplits = 8
					spec.System.IntraParallel = workers
					tp, err := spec.BuildTopology()
					if err != nil {
						t.Fatal(err)
					}
					inst, aud, err := spec.NewInstance(tp, nil)
					if err != nil {
						t.Fatal(err)
					}
					c.Add(aud)
					if _, err := inst.RunCollective(op, 1<<20); err != nil {
						t.Fatal(err)
					}
					if v := c.Violations(); len(v) > 0 {
						t.Fatalf("invariant violations:\n  %s", v[0])
					}
				})
			}
		}
	}
	if c.Runs() == 0 {
		t.Fatal("no audited instances created")
	}
}
