// Package metamorphic is the simulator's metamorphic property engine: a
// registry of transformation -> expected-effect rules executed over a
// seeded, randomized corpus of simulation configurations.
//
// Where the oracle (internal/oracle) pins absolute completion times in a
// restricted regime, metamorphic rules pin *relations between runs* that
// must hold everywhere: doubling link bandwidth halves the
// serialization-dominated completion time; doubling the collective size
// at most doubles it; rotating a straggler around a symmetric ring
// changes nothing; raising a straggler factor or a packet-drop rate never
// speeds a run up; the enhanced hierarchical algorithm never loses to
// baseline on asymmetric fabrics; an armed-but-idle retry policy is
// byte-identical to no policy; and single-chunk runs match the oracle
// cycle-for-cycle. A simulator bug that preserves plausibility of any
// single number still breaks these relations.
//
// Every rule is a pure function of its Case, every simulation is
// deterministic, and the runner fans cases out through
// internal/parallel's submission-ordered Map — so a suite run produces
// the same report for any worker count. Failures are minimized by
// re-running the rule on progressively smaller variants of the failing
// case and are reported as config diffs against the original.
package metamorphic

import (
	"fmt"
	"math/rand"

	"astrasim/internal/audit"
	"astrasim/internal/cli"
	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/faults"
	"astrasim/internal/parallel"
	"astrasim/internal/system"
	"astrasim/internal/topology"
)

// Case is one corpus point: the base configuration a rule transforms.
type Case struct {
	Topo   string
	Op     collectives.Op
	Alg    config.Algorithm
	Bytes  int64
	Splits int
	// Backend selects the network transport the case simulates on. The
	// zero value is the packet backend, so existing corpora are unchanged;
	// mapping a corpus to config.FastBackend reruns every relation on the
	// congestion-unaware analytical backend. The minimizer never shrinks
	// this field — switching transports would change what failed.
	Backend config.Backend
}

func (c Case) String() string {
	return fmt.Sprintf("{topo=%s op=%v alg=%v bytes=%d splits=%d backend=%v}",
		c.Topo, c.Op, c.Alg, c.Bytes, c.Splits, c.Backend)
}

// diff renders the field-level difference from c to other ("" if equal).
func (c Case) diff(other Case) string {
	var parts []string
	if c.Topo != other.Topo {
		parts = append(parts, fmt.Sprintf("topo: %s -> %s", c.Topo, other.Topo))
	}
	if c.Op != other.Op {
		parts = append(parts, fmt.Sprintf("op: %v -> %v", c.Op, other.Op))
	}
	if c.Alg != other.Alg {
		parts = append(parts, fmt.Sprintf("alg: %v -> %v", c.Alg, other.Alg))
	}
	if c.Bytes != other.Bytes {
		parts = append(parts, fmt.Sprintf("bytes: %d -> %d", c.Bytes, other.Bytes))
	}
	if c.Splits != other.Splits {
		parts = append(parts, fmt.Sprintf("splits: %d -> %d", c.Splits, other.Splits))
	}
	if c.Backend != other.Backend {
		parts = append(parts, fmt.Sprintf("backend: %v -> %v", c.Backend, other.Backend))
	}
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += "; "
		}
		out += p
	}
	return out
}

// Rule is one transformation -> expected-effect family. Check returns nil
// when the relation holds (or the rule does not apply to the case) and a
// deterministic description of the violation otherwise. Check must be a
// pure function of the case: the runner relies on that for
// worker-count-independent reports and for failure minimization.
type Rule struct {
	Name string
	// Doc is the one-line relation statement (rendered in DESIGN.md §9).
	Doc   string
	Check func(c Case) error
}

// corpusTopos is the topology pool the seeded corpus draws from — the
// same families the differential corpus covers.
var corpusTopos = []string{
	"1x8x1", "2x2x2", "2x4x2", "2x2x2x2", "a2a:2x4", "sw:4x2", "so:2x2x1/2", "4x4x4",
	"hier:sw4,fc3,ring4", "hier:ring2,sw8", "hier:ring2,ring4,ring2",
}

var corpusOps = []collectives.Op{
	collectives.ReduceScatter, collectives.AllGather,
	collectives.AllReduce, collectives.AllToAll,
}

// Corpus generates n seeded random cases. The same (seed, n) always
// yields the same corpus, so a CI failure reproduces locally verbatim.
func Corpus(seed int64, n int) []Case {
	rng := rand.New(rand.NewSource(seed))
	splits := []int{1, 2, 64}
	out := make([]Case, n)
	for i := range out {
		alg := config.Baseline
		if rng.Intn(2) == 1 {
			alg = config.Enhanced
		}
		out[i] = Case{
			Topo:   corpusTopos[rng.Intn(len(corpusTopos))],
			Op:     corpusOps[rng.Intn(len(corpusOps))],
			Alg:    alg,
			Bytes:  4096 + rng.Int63n(1<<20-4096),
			Splits: splits[rng.Intn(len(splits))],
		}
	}
	return out
}

// Failure is one violated rule, reported against the minimized
// reproduction of the failing case.
type Failure struct {
	Rule      string
	Original  Case
	Minimized Case
	// Diff is the field-level config diff from Original to Minimized
	// ("" when the case could not shrink).
	Diff string
	// Reason is the minimized case's violation message.
	Reason string
}

func (f Failure) String() string {
	s := fmt.Sprintf("rule %q violated by %v: %s", f.Rule, f.Minimized, f.Reason)
	if f.Diff != "" {
		s += fmt.Sprintf(" (minimized from %v: %s)", f.Original, f.Diff)
	}
	return s
}

// Run executes every rule over every corpus case across workers and
// returns the (deterministically ordered) failures. The report is
// identical for any worker count: tasks are pure and results are
// collected in submission order.
func Run(rules []Rule, corpus []Case, workers int) ([]Failure, error) {
	type task struct {
		rule Rule
		c    Case
	}
	tasks := make([]task, 0, len(rules)*len(corpus))
	for _, c := range corpus {
		for _, r := range rules {
			tasks = append(tasks, task{rule: r, c: c})
		}
	}
	results, err := parallel.Map(parallel.New(workers), len(tasks), func(i int) (*Failure, error) {
		t := tasks[i]
		checkErr := t.rule.Check(t.c)
		if checkErr == nil {
			return nil, nil
		}
		minimized, reason := minimize(t.rule, t.c, checkErr)
		return &Failure{
			Rule:      t.rule.Name,
			Original:  t.c,
			Minimized: minimized,
			Diff:      t.c.diff(minimized),
			Reason:    reason,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var failures []Failure
	for _, f := range results {
		if f != nil {
			failures = append(failures, *f)
		}
	}
	return failures, nil
}

// minimize greedily shrinks a failing case while the rule keeps failing:
// halve the byte size, drop the split count to 1, fall back to the
// baseline algorithm. Returns the smallest still-failing case and its
// violation message.
func minimize(r Rule, c Case, firstErr error) (Case, string) {
	cur, reason := c, firstErr.Error()
	for iter := 0; iter < 24; iter++ {
		shrunk := false
		for _, cand := range shrinkCandidates(cur) {
			if err := r.Check(cand); err != nil {
				cur, reason = cand, err.Error()
				shrunk = true
				break
			}
		}
		if !shrunk {
			break
		}
	}
	return cur, reason
}

// shrinkCandidates proposes strictly simpler variants of a case, in
// preference order.
func shrinkCandidates(c Case) []Case {
	var out []Case
	if half := c.Bytes / 2; half >= 2048 {
		d := c
		d.Bytes = half
		out = append(out, d)
	}
	if c.Splits != 1 {
		d := c
		d.Splits = 1
		out = append(out, d)
	}
	if c.Alg != config.Baseline {
		d := c
		d.Alg = config.Baseline
		out = append(out, d)
	}
	return out
}

// --- simulation helpers ----------------------------------------------

// runOpts tweak one simulation relative to its case.
type runOpts struct {
	sys  func(*config.System)
	net  func(*config.Network)
	inst func(*system.Instance)
	plan *faults.Plan
}

// runResult is what rules compare between transformed runs.
type runResult struct {
	Duration      eventq.Time
	InjectedBytes int64
	Retransmits   uint64
}

// simulate runs one case to completion with the audit layer attached —
// every metamorphic run doubles as an invariant check — and returns its
// observables.
func simulate(c Case, o runOpts) (runResult, error) {
	cfg := config.DefaultSystem()
	cfg.Algorithm = c.Alg
	cfg.PreferredSetSplits = c.Splits
	cfg.Backend = c.Backend
	if o.sys != nil {
		o.sys(&cfg)
	}
	topo, err := cli.BuildTopology(c.Topo, cli.DefaultTopologyOptions(), &cfg)
	if err != nil {
		return runResult{}, fmt.Errorf("building %s: %w", c.Topo, err)
	}
	net := config.DefaultNetwork()
	if o.net != nil {
		o.net(&net)
	}
	inst, err := system.NewInstance(topo, cfg, net)
	if err != nil {
		return runResult{}, err
	}
	aud := audit.Attach(inst.Sys)
	if o.plan != nil {
		if err := faults.Apply(o.plan, inst); err != nil {
			return runResult{}, err
		}
	}
	if o.inst != nil {
		o.inst(inst)
	}
	h, err := inst.Sys.IssueCollective(c.Op, c.Bytes, "metamorphic", nil)
	if err != nil {
		return runResult{}, err
	}
	inst.Eng.Run()
	if err := inst.Eng.Err(); err != nil {
		return runResult{}, err
	}
	if !h.Done() {
		return runResult{}, fmt.Errorf("collective did not complete on %v", c)
	}
	rep := aud.Report()
	if err := rep.Err(); err != nil {
		return runResult{}, fmt.Errorf("audit violation on %v: %w", c, err)
	}
	return runResult{
		Duration:      h.Duration(),
		InjectedBytes: rep.InjectedBytes,
		Retransmits:   inst.Sys.Retransmits(),
	}, nil
}

// activeTorusDims returns the active (size > 1) dimensions when every one
// of them is a ring, or nil if the case's topology has any direct
// dimension (rules needing ring symmetry skip those).
func activeTorusDims(c Case) ([]topology.DimInfo, int, error) {
	cfg := config.DefaultSystem()
	topo, err := cli.BuildTopology(c.Topo, cli.DefaultTopologyOptions(), &cfg)
	if err != nil {
		return nil, 0, err
	}
	var dims []topology.DimInfo
	for _, d := range topo.Dims() {
		if d.Size <= 1 {
			continue
		}
		if d.Direct {
			return nil, topo.NumNPUs(), nil
		}
		dims = append(dims, d)
	}
	return dims, topo.NumNPUs(), nil
}
