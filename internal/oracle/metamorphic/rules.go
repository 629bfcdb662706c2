package metamorphic

import (
	"fmt"
	"strings"

	"astrasim/internal/cli"
	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/faults"
	"astrasim/internal/modelgen"
	"astrasim/internal/oracle"
	"astrasim/internal/system"
	"astrasim/internal/topology"
)

// Rules returns the registry of metamorphic rule families, in the order
// they are documented in DESIGN.md §9. Each rule transforms a corpus case
// and asserts the relation its Doc states; later PRs extend the suite by
// appending here.
func Rules() []Rule {
	return []Rule{
		{
			Name:  "bandwidth-serialization",
			Doc:   "doubling every link bandwidth strictly speeds a run up, and halves the serialization-dominated completion time within 25%",
			Check: checkBandwidthSerialization,
		},
		{
			Name:  "size-scaling",
			Doc:   "doubling the collective size never speeds a run up and at most doubles its completion time (plus sub-cycle rounding slack)",
			Check: checkSizeScaling,
		},
		{
			Name:  "ring-rotation-invariance",
			Doc:   "on a single-ring torus, rotating a straggler to any other node leaves the completion time bit-identical (node-ID permutation symmetry)",
			Check: checkRingRotationInvariance,
		},
		{
			Name:  "straggler-monotone",
			Doc:   "raising a node's straggler factor never speeds the run up",
			Check: checkStragglerMonotone,
		},
		{
			Name:  "drop-rate-monotone",
			Doc:   "packet loss with retransmit recovery never beats the loss-free run",
			Check: checkDropRateMonotone,
		},
		{
			Name:  "enhanced-vs-baseline",
			Doc:   "under asymmetric local bandwidth, the enhanced hierarchical all-reduce never loses to baseline (paper §III-D)",
			Check: checkEnhancedVsBaseline,
		},
		{
			Name:  "hier-dim-permutation",
			Doc:   "permuting two same-kind, same-class dimensions of a hierarchical composition shifts the completion time only by per-step quantization (5% band)",
			Check: checkHierDimPermutation,
		},
		{
			Name:  "zero-shard-scaling",
			Doc:   "doubling the dp degree exactly halves each rank's ZeRO optimizer shard (divisible sizes), and generated graphs match the closed-form volume oracle at both degrees",
			Check: checkZeroShardScaling,
		},
		{
			Name:  "ep-permutation-invariance",
			Doc:   "permuting expert placement leaves the expert-parallel all-to-all volume bit-identical (routing is a bijection; capacity does not depend on expert identity)",
			Check: checkEPPermutationInvariance,
		},
		{
			Name:  "class-bandwidth-monotone",
			Doc:   "doubling any single link class's bandwidth never slows a run down",
			Check: checkClassBandwidthMonotone,
		},
		{
			Name:  "retry-policy-noop",
			Doc:   "a retry policy armed on a fault-free run is invisible: byte-identical traffic, identical completion, zero retransmits",
			Check: checkRetryPolicyNoop,
		},
		{
			Name:  "oracle-exact",
			Doc:   "single-chunk runs match the closed-form oracle cycle-for-cycle",
			Check: checkOracleExact,
		},
	}
}

// checkBandwidthSerialization doubles every link class's bandwidth. The
// transformed run must be strictly faster, and — at serialization-
// dominated sizes, which the rule pins by clamping the case to a 4 MB
// single chunk — the speedup must approach 2x: 2*T(2bw) within 25% of
// T(bw), the α/β split of the cost model.
func checkBandwidthSerialization(c Case) error {
	c.Splits = 1
	if c.Bytes < 4<<20 {
		c.Bytes = 4 << 20
	}
	base, err := simulate(c, runOpts{})
	if err != nil {
		return err
	}
	double := func(n *config.Network) {
		n.LocalLinkBandwidth *= 2
		n.PackageLinkBandwidth *= 2
		n.ScaleOutLinkBandwidth *= 2
	}
	fast, err := simulate(c, runOpts{net: double})
	if err != nil {
		return err
	}
	if fast.Duration >= base.Duration {
		return fmt.Errorf("doubled bandwidth did not speed up: %d -> %d cycles", base.Duration, fast.Duration)
	}
	lo, hi := 3*base.Duration/4, 5*base.Duration/4
	if folded := 2 * fast.Duration; folded < lo || folded > hi {
		return fmt.Errorf("serialization did not halve: T(bw)=%d, 2*T(2bw)=%d outside [%d, %d]", base.Duration, folded, lo, hi)
	}
	return nil
}

// checkSizeScaling doubles the collective size: completion time must not
// shrink, and must not grow beyond 2x plus slack for per-step constants
// and sub-cycle rounding.
func checkSizeScaling(c Case) error {
	base, err := simulate(c, runOpts{})
	if err != nil {
		return err
	}
	d := c
	d.Bytes = 2 * c.Bytes
	doubled, err := simulate(d, runOpts{})
	if err != nil {
		return err
	}
	if doubled.Duration < base.Duration {
		return fmt.Errorf("doubling size sped the run up: %d -> %d cycles", base.Duration, doubled.Duration)
	}
	slack := base.Duration/20 + 64
	if doubled.Duration > 2*base.Duration+slack {
		return fmt.Errorf("doubling size more than doubled time: %d -> %d cycles (bound %d)", base.Duration, doubled.Duration, 2*base.Duration+slack)
	}
	return nil
}

// checkRingRotationInvariance applies to cases whose topology is a
// single active ring spanning every NPU (e.g. 1x8x1): rotating a
// straggler from node 0 to the diametrically opposite node is a topology
// automorphism, so the completion time must be bit-identical.
func checkRingRotationInvariance(c Case) error {
	dims, npus, err := activeTorusDims(c)
	if err != nil {
		return err
	}
	if len(dims) != 1 || dims[0].Size != npus || npus < 2 {
		return nil // not a single-ring topology; rule does not apply
	}
	straggle := func(node topology.Node) runOpts {
		return runOpts{inst: func(inst *system.Instance) {
			if err := inst.Sys.SetNodeStragglerFactor(node, 5); err != nil {
				panic(err)
			}
		}}
	}
	at0, err := simulate(c, straggle(0))
	if err != nil {
		return err
	}
	rotated := topology.Node(npus / 2)
	atR, err := simulate(c, straggle(rotated))
	if err != nil {
		return err
	}
	if at0.Duration != atR.Duration {
		return fmt.Errorf("straggler at node 0 ran %d cycles but at node %d ran %d: ring rotation symmetry broken", at0.Duration, rotated, atR.Duration)
	}
	return nil
}

// checkStragglerMonotone raises one node's straggler factor from 2x to
// 8x: the run must never get faster.
func checkStragglerMonotone(c Case) error {
	straggle := func(factor float64) runOpts {
		return runOpts{inst: func(inst *system.Instance) {
			if err := inst.Sys.SetNodeStragglerFactor(0, factor); err != nil {
				panic(err)
			}
		}}
	}
	mild, err := simulate(c, straggle(2))
	if err != nil {
		return err
	}
	severe, err := simulate(c, straggle(8))
	if err != nil {
		return err
	}
	if severe.Duration < mild.Duration {
		return fmt.Errorf("8x straggler ran %d cycles, faster than 2x straggler's %d", severe.Duration, mild.Duration)
	}
	return nil
}

// checkDropRateMonotone injects deterministic packet loss (with
// retransmit recovery) on every link: the lossy run must never beat the
// loss-free one. The fault seed derives from the case so the comparison
// is reproducible.
func checkDropRateMonotone(c Case) error {
	if c.Backend != config.PacketBackend {
		return nil // fault injection is packet-only; rule does not apply
	}
	if c.Bytes > 1<<20 {
		c.Bytes = 1 << 20 // keep retransmit-heavy runs bounded
	}
	clean, err := simulate(c, runOpts{})
	if err != nil {
		return err
	}
	plan := &faults.Plan{
		Seed:  uint64(c.Bytes)*2654435761 + uint64(c.Splits),
		Drops: []faults.Drop{{LinkSet: faults.LinkSet{Class: "all"}, Probability: 0.002}},
		Retry: &faults.Retry{Timeout: 20000, Backoff: 2, MaxRetries: 10},
	}
	lossy, err := simulate(c, runOpts{plan: plan})
	if err != nil {
		return err
	}
	if lossy.Duration < clean.Duration {
		return fmt.Errorf("lossy run (%d retransmits) took %d cycles, beating the loss-free %d", lossy.Retransmits, lossy.Duration, clean.Duration)
	}
	return nil
}

// checkEnhancedVsBaseline applies to hierarchical tori with an active
// local dimension: with the default asymmetric fabric (local links ~8x
// the inter-package bandwidth) and an inter-package-dominated size, the
// enhanced all-reduce — which shrinks inter-package traffic to 1/M —
// must not lose to baseline.
func checkEnhancedVsBaseline(c Case) error {
	dims, _, err := activeTorusDims(c)
	if err != nil {
		return err
	}
	if len(dims) < 2 || dims[0].Dim != topology.DimLocal {
		return nil // needs local + at least one inter-package ring dimension
	}
	c.Op = collectives.AllReduce
	if c.Bytes < 1<<20 {
		c.Bytes = 1 << 20
	}
	b := c
	b.Alg = config.Baseline
	base, err := simulate(b, runOpts{})
	if err != nil {
		return err
	}
	e := c
	e.Alg = config.Enhanced
	enh, err := simulate(e, runOpts{})
	if err != nil {
		return err
	}
	if enh.Duration > base.Duration {
		return fmt.Errorf("enhanced all-reduce ran %d cycles, slower than baseline's %d on an asymmetric fabric", enh.Duration, base.Duration)
	}
	return nil
}

// hierClassToken renders a link class in the hier: spec grammar.
func hierClassToken(c topology.LinkClass) string {
	switch c {
	case topology.IntraPackage:
		return "local"
	case topology.ScaleOutLink:
		return "so"
	default:
		return "pkg"
	}
}

// hierTopoSpec renders dimension specs back into the CLI hier: grammar.
func hierTopoSpec(specs []topology.DimSpec) string {
	parts := make([]string, len(specs))
	for i, s := range specs {
		parts[i] = fmt.Sprintf("%s%dx%d@%s", s.Kind, s.Size, s.Lanes, hierClassToken(s.Class))
	}
	return "hier:" + strings.Join(parts, ",")
}

// checkHierDimPermutation applies to hierarchical compositions with two
// inter-package dimensions of the same kind and link class: swapping them
// reorders the collective's phases but moves the same bytes over the same
// link classes, so the completion time may shift only by per-step flit and
// message quantization. The relation is banded, not exact: different
// phase orders round chunk subdivisions differently (measured deltas stay
// well under 1%), unlike the equivalence of an "MxA1x...xAd" torus spec
// and its spelled-out all-ring hier: composition, which is byte-identical
// because both build the same dimensions.
func checkHierDimPermutation(c Case) error {
	if !strings.HasPrefix(c.Topo, "hier:") {
		return nil // rule only applies to hierarchical compositions
	}
	specs, err := cli.ParseHierSpec(strings.TrimPrefix(c.Topo, "hier:"), cli.DefaultTopologyOptions())
	if err != nil {
		return err
	}
	// Find a swappable pair among the inter-package dimensions: same kind
	// and class (so traffic stays on the same fabric), differing otherwise
	// (swapping identical specs is the identity).
	i, j := -1, -1
	for a := 1; a < len(specs) && i < 0; a++ {
		for b := a + 1; b < len(specs); b++ {
			if specs[a].Kind == specs[b].Kind && specs[a].Class == specs[b].Class && specs[a] != specs[b] {
				i, j = a, b
				break
			}
		}
	}
	if i < 0 {
		return nil // no permutable dimension pair; rule does not apply
	}
	base, err := simulate(c, runOpts{})
	if err != nil {
		return err
	}
	swapped := append([]topology.DimSpec(nil), specs...)
	swapped[i], swapped[j] = swapped[j], swapped[i]
	d := c
	d.Topo = hierTopoSpec(swapped)
	perm, err := simulate(d, runOpts{})
	if err != nil {
		return err
	}
	delta := int64(perm.Duration) - int64(base.Duration)
	if delta < 0 {
		delta = -delta
	}
	if band := int64(base.Duration)/20 + 256; delta > band {
		return fmt.Errorf("swapping dims %d and %d moved the run %d -> %d cycles (|delta| %d beyond band %d)",
			i, j, base.Duration, perm.Duration, delta, band)
	}
	return nil
}

// checkClassBandwidthMonotone doubles one link class's bandwidth at a
// time: a single-chunk run must never slow down when any single fabric
// gets faster — per-dimension bandwidth monotonicity for compositional
// topologies, where each dimension maps to one class. The rule clamps to
// one chunk (like bandwidth-serialization): with pipelined chunk splits a
// faster early phase can reshuffle queueing at later phases by a handful
// of cycles, so only the sequential-phase regime is exactly monotone.
func checkClassBandwidthMonotone(c Case) error {
	c.Splits = 1
	base, err := simulate(c, runOpts{})
	if err != nil {
		return err
	}
	muts := []struct {
		name string
		f    func(*config.Network)
	}{
		{"local", func(n *config.Network) { n.LocalLinkBandwidth *= 2 }},
		{"package", func(n *config.Network) { n.PackageLinkBandwidth *= 2 }},
		{"scale-out", func(n *config.Network) { n.ScaleOutLinkBandwidth *= 2 }},
	}
	for _, m := range muts {
		fast, err := simulate(c, runOpts{net: m.f})
		if err != nil {
			return err
		}
		if fast.Duration > base.Duration {
			return fmt.Errorf("doubling %s-link bandwidth slowed the run: %d -> %d cycles", m.name, base.Duration, fast.Duration)
		}
	}
	return nil
}

// checkRetryPolicyNoop arms the retransmit protocol on a fault-free run:
// with nothing to recover it must be invisible — identical completion
// time, byte-identical injected traffic, zero retransmits.
func checkRetryPolicyNoop(c Case) error {
	plain, err := simulate(c, runOpts{})
	if err != nil {
		return err
	}
	armed, err := simulate(c, runOpts{inst: func(inst *system.Instance) {
		inst.Sys.SetRetryPolicy(&system.RetryPolicy{Timeout: 5000, Backoff: 2, MaxRetries: 4})
	}})
	if err != nil {
		return err
	}
	if armed.Retransmits != 0 {
		return fmt.Errorf("fault-free run retransmitted %d messages", armed.Retransmits)
	}
	if armed.Duration != plain.Duration || armed.InjectedBytes != plain.InjectedBytes {
		return fmt.Errorf("armed retry policy changed the run: %d cycles/%d bytes vs %d cycles/%d bytes",
			armed.Duration, armed.InjectedBytes, plain.Duration, plain.InjectedBytes)
	}
	return nil
}

// checkOracleExact forces the case into the single-chunk regime and
// cross-checks the simulator against the closed-form oracle with zero
// tolerance — the differential check as a standing metamorphic rule, so
// the randomized corpus keeps probing configurations the fixed corpus in
// internal/collectives does not enumerate.
func checkOracleExact(c Case) error {
	c.Splits = 1
	cfg := config.DefaultSystem()
	cfg.Algorithm = c.Alg
	cfg.PreferredSetSplits = 1
	topo, err := cli.BuildTopology(c.Topo, cli.DefaultTopologyOptions(), &cfg)
	if err != nil {
		return err
	}
	net := config.DefaultNetwork()
	sim, err := simulate(c, runOpts{})
	if err != nil {
		return err
	}
	m, err := oracle.NewModel(topo, cfg, net)
	if err != nil {
		return err
	}
	pred, err := m.Predict(c.Op, c.Bytes)
	if err != nil {
		return err
	}
	if pred.Cycles != sim.Duration {
		return fmt.Errorf("oracle predicted %d cycles, simulator ran %d", pred.Cycles, sim.Duration)
	}
	return nil
}

// modelZeroVolumes compiles a (spec, plan) pair for one step and folds
// the generated graph's ZeRO-tagged COMM traffic into (count, bytes).
func modelZeroBytes(spec *modelgen.Spec, plan *modelgen.Plan) (int64, error) {
	g, err := modelgen.Compile(spec, plan, modelgen.Options{Steps: 1})
	if err != nil {
		return 0, err
	}
	var total int64
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Kind == "COMM" && n.Tag == "zero" {
			total += n.Bytes
		}
	}
	return total, nil
}

// checkZeroShardScaling derives a small explicit-layer model from the
// case and compares a dp=d plan against dp=2d at the same ZeRO stage.
// With layer sizes divisible by both degrees the per-rank optimizer
// shard must halve *exactly*, and at both degrees the compiled graph's
// ZeRO traffic must equal the closed-form volume oracle bit-for-bit.
func checkZeroShardScaling(c Case) error {
	pb := (c.Bytes%7 + 1) * 1024 // divisible by every dp degree below
	stage := 1 + int(c.Bytes%3)  // ZeRO 1..3 (stage 0 keeps no shard)
	d := 2 << uint(c.Splits%2)   // dp 2 or 4, doubled to 4 or 8
	spec := &modelgen.Spec{
		Version: 1, Name: "meta-zero", Batch: 16, DTypeBytes: 2,
		Layers: []modelgen.LayerSpec{
			{Name: "l0", ParamBytes: pb, ActBytes: 4096, FwdFlops: 1 << 20, IGFlops: 1 << 20, WGFlops: 1 << 20},
			{Name: "l1", ParamBytes: 2 * pb, ActBytes: 4096, FwdFlops: 1 << 20, IGFlops: 1 << 20, WGFlops: 1 << 20},
		},
	}
	base := &modelgen.Plan{Version: 1, Name: "meta-zero-d", DP: d, ZeROStage: stage, Microbatches: 2}
	doubled := &modelgen.Plan{Version: 1, Name: "meta-zero-2d", DP: 2 * d, ZeROStage: stage, Microbatches: 2}
	va, err := modelgen.PlanVolumes(spec, base)
	if err != nil {
		return err
	}
	vb, err := modelgen.PlanVolumes(spec, doubled)
	if err != nil {
		return err
	}
	if 2*vb.PerRankShardBytes != va.PerRankShardBytes {
		return fmt.Errorf("dp %d -> %d: per-rank shard %d -> %d bytes, want exact halving",
			d, 2*d, va.PerRankShardBytes, vb.PerRankShardBytes)
	}
	for _, pv := range []struct {
		plan *modelgen.Plan
		want modelgen.Volumes
	}{{base, va}, {doubled, vb}} {
		got, err := modelZeroBytes(spec, pv.plan)
		if err != nil {
			return err
		}
		want := pv.want.ZeroAllGather.Bytes + pv.want.ZeroReduce.Bytes
		if got != want {
			return fmt.Errorf("plan %s: graph carries %d ZeRO bytes, oracle says %d",
				pv.plan.Name, got, want)
		}
	}
	return nil
}

// checkEPPermutationInvariance compiles the same MoE model under the
// identity expert placement and under a rotated permutation: the
// expert-parallel all-to-all volume (dispatch + combine, fwd + bwd)
// must be bit-identical — token routing is a bijection, so where an
// expert physically lives cannot change how many bytes move.
func checkEPPermutationInvariance(c Case) error {
	const experts = 8
	ep := 2 << uint(c.Splits%2) // 2 or 4, both divide 8
	cf := []float64{1, 1.25, 0.5}[c.Bytes%3]
	spec := &modelgen.Spec{
		Version: 1, Name: "meta-ep", Batch: 8, DTypeBytes: 2,
		Layers: []modelgen.LayerSpec{
			{Name: "dense", ParamBytes: 4096, ActBytes: 2048, FwdFlops: 1 << 20, IGFlops: 1 << 20, WGFlops: 1 << 20},
			{Name: "moe", ParamBytes: 8192, ActBytes: 2048, FwdFlops: 1 << 20, IGFlops: 1 << 20, WGFlops: 1 << 20, Experts: experts},
		},
	}
	perm := make([]int, experts)
	rot := 1 + int(c.Bytes%int64(experts-1))
	for i := range perm {
		perm[i] = (i + rot) % experts
	}
	identity := &modelgen.Plan{Version: 1, Name: "meta-ep-id", EP: ep, Microbatches: 2, CapacityFactor: cf}
	permuted := &modelgen.Plan{Version: 1, Name: "meta-ep-perm", EP: ep, Microbatches: 2, CapacityFactor: cf,
		ExpertPermutation: perm}
	var vols [2]struct{ count, bytes int64 }
	for i, plan := range []*modelgen.Plan{identity, permuted} {
		g, err := modelgen.Compile(spec, plan, modelgen.Options{Steps: 1})
		if err != nil {
			return err
		}
		for j := range g.Nodes {
			n := &g.Nodes[j]
			if n.Kind == "COMM" && n.Tag == "ep" {
				vols[i].count++
				vols[i].bytes += n.Bytes
			}
		}
	}
	if vols[0] != vols[1] {
		return fmt.Errorf("expert rotation by %d changed the all-to-all volume: %d ops/%d bytes vs %d ops/%d bytes",
			rot, vols[0].count, vols[0].bytes, vols[1].count, vols[1].bytes)
	}
	if vols[0].count == 0 {
		return fmt.Errorf("MoE model under ep=%d emitted no expert all-to-alls", ep)
	}
	return nil
}
