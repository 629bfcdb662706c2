// Package astrasim is a Go implementation of ASTRA-SIM (Rashidi et al.,
// ISPASS 2020): an end-to-end, event-driven simulator for distributed deep
// learning training over hierarchical scale-up fabrics.
//
// The simulator stacks three layers. The workload layer runs a
// layer-by-layer DNN training loop (data, model, or hybrid parallelism)
// and issues collective communications. The system layer executes
// topology-aware collectives (reduce-scatter, all-gather, all-reduce,
// all-to-all) over hierarchical torus or alltoall logical topologies,
// pipelining each collective's chunks through per-phase logical scheduling
// queues. The network layer simulates the physical fabric at packet
// granularity: link bandwidth and latency, flit-level efficiency, router
// hops, buffering and backpressure.
//
// Quick start:
//
//	p, _ := astrasim.NewTorusPlatform(4, 4, 4)
//	res, _ := p.RunCollective(astrasim.AllReduce, 64<<20)
//	fmt.Println(res.Duration(), "cycles")
//
// End-to-end training:
//
//	p, _ := astrasim.NewTorusPlatform(2, 4, 4)
//	res, _ := p.Train(astrasim.ResNet50(32), 2)
//	fmt.Println(res.ExposedRatio())
package astrasim

import (
	"fmt"
	"io"
	"sync"

	"astrasim/internal/audit"
	"astrasim/internal/cli"
	"astrasim/internal/collectives"
	"astrasim/internal/compute"
	"astrasim/internal/config"
	"astrasim/internal/energy"
	"astrasim/internal/faults"
	"astrasim/internal/graph"
	"astrasim/internal/modelgen"
	"astrasim/internal/models"
	"astrasim/internal/system"
	"astrasim/internal/topology"
	"astrasim/internal/workload"
)

// Op is a collective communication operation.
type Op = collectives.Op

// Collective operations (paper Fig. 4).
const (
	ReduceScatter = collectives.ReduceScatter
	AllGather     = collectives.AllGather
	AllReduce     = collectives.AllReduce
	AllToAll      = collectives.AllToAll
)

// Algorithm selects the hierarchical collective algorithm.
type Algorithm = config.Algorithm

// Collective algorithms (Table III parameter #3).
const (
	Baseline = config.Baseline
	Enhanced = config.Enhanced
)

// SchedulingPolicy orders the ready queue.
type SchedulingPolicy = config.SchedulingPolicy

// Ready-queue scheduling policies (Table III parameter #7, plus the
// explicit-priority extension of §III-E).
const (
	LIFO     = config.LIFO
	FIFO     = config.FIFO
	Priority = config.Priority
)

// NetworkConfig holds the Garnet-level fabric parameters (Table III
// #17-28); DefaultNetworkConfig returns the Table IV values.
type NetworkConfig = config.Network

// DefaultNetworkConfig returns the paper's Table IV network parameters.
func DefaultNetworkConfig() NetworkConfig { return config.DefaultNetwork() }

// Definition is a DNN workload description (the Fig. 8 input file).
type Definition = workload.Definition

// Layer is one layer of a workload definition.
type Layer = workload.Layer

// Scope restricts a layer's collective to specific topology dimensions
// ("vertical", "local+horizontal"); empty means global. Hybrid
// parallelism uses scopes to exchange activations within the
// model-parallel dimension only.
type Scope = workload.Scope

// TrainingResult is the outcome of a training simulation.
type TrainingResult = graph.Result

// LayerStats is one layer's accumulated cost in a TrainingResult.
type LayerStats = graph.LayerStats

// CollectiveResult tracks one completed collective, including its
// end-to-end duration and per-phase queue/network delay breakdown.
type CollectiveResult = system.Handle

// ComputeModel is the analytical systolic-array accelerator model used to
// derive per-layer compute delays.
type ComputeModel = compute.Model

// DefaultComputeModel returns the 256x256 TPU-like array of the paper.
func DefaultComputeModel() ComputeModel { return compute.Default() }

// Parallelism is the training partitioning strategy.
type Parallelism = workload.Parallelism

// Parallelization strategies (paper §III-A, Table I).
const (
	DataParallel   = workload.DataParallel
	ModelParallel  = workload.ModelParallel
	HybridParallel = workload.HybridParallel
)

// Platform is a configured simulation target: a logical topology, its
// physical links, and the system/network parameters. Each Run*/Train call
// simulates on a fresh instance, so a Platform is reusable across runs
// and safe for concurrent use: Set* mutators and runs may interleave from
// multiple goroutines, with each run snapshotting the configuration it
// starts with.
type Platform struct {
	topo topology.Topology

	// mu guards the mutable configuration below. The topology is
	// immutable after construction and needs no lock.
	mu sync.RWMutex
	// spec holds the system and network parameters, the fault plan and
	// the audit switch every run on this platform uses.
	spec cli.RunSpec
	// stragglers maps NPU -> endpoint slowdown factor, applied to every
	// simulation instance this platform creates.
	stragglers map[NodeID]float64
}

// FaultPlan is a declarative, seed-reproducible fault-injection plan:
// degraded links, transient outages, per-node stragglers, and packet
// drops recovered by timeout/retransmit. See the faults package for the
// schema and DESIGN.md §8 for semantics.
type FaultPlan = faults.Plan

// LoadFaultPlan reads and validates a JSON fault plan from a file.
func LoadFaultPlan(path string) (*FaultPlan, error) { return faults.Load(path) }

// ParseFaultPlan reads and validates a JSON fault plan.
func ParseFaultPlan(r io.Reader) (*FaultPlan, error) { return faults.Parse(r) }

// SetFaultPlan applies the plan to every subsequent run on this platform
// (nil clears it). The plan is validated immediately; fault decisions
// derive from the plan's seed, so runs stay deterministic.
func (p *Platform) SetFaultPlan(plan *FaultPlan) error {
	if plan != nil {
		if err := plan.Validate(); err != nil {
			return err
		}
	}
	p.mu.Lock()
	p.spec.Faults = plan
	p.mu.Unlock()
	return nil
}

// SetAudit toggles invariant auditing for every subsequent run: byte
// conservation across the three layers, quiescence at completion, and
// monotonic link stats. A violated invariant turns the run into an
// error. Off by default; the checks cost a few percent of runtime.
func (p *Platform) SetAudit(on bool) {
	p.mu.Lock()
	p.spec.Audit = on
	p.mu.Unlock()
}

// Backend selects the network transport implementation.
type Backend = config.Backend

// Network backends: the congestion-aware packet-level model (the default)
// and the congestion-unaware analytical fast mode, which is byte-identical
// to packet-level on uncongested runs and orders of magnitude faster.
const (
	PacketBackend = config.PacketBackend
	FastBackend   = config.FastBackend
)

// ParseBackend converts "packet"/"fast" to a Backend; the error names any
// rejected token.
func ParseBackend(s string) (Backend, error) { return config.ParseBackend(s) }

// SetBackend selects the network backend for every subsequent run on this
// platform. FastBackend is incompatible with a fault plan (fault injection
// is packet-only); the conflict is reported when the next run starts.
func (p *Platform) SetBackend(b Backend) {
	p.mu.Lock()
	p.spec.System.Backend = b
	p.mu.Unlock()
}

// optionNames spells the settings cli.RunSpec.Validate names in its
// rejections as this package's options and setters do.
var optionNames = cli.Names{Faults: "a fault plan", IntraParallel: "WithIntraParallel", SetSplits: "WithSetSplits",
	RemoteMemBandwidth: "WithRemoteMemory bandwidth", RemoteMemLatency: "WithRemoteMemory latency"}

// instance validates the platform configuration, and the workload's
// own row when check is non-nil, then builds a fresh wired simulation
// with the platform's fault injections applied. The auditor is nil
// unless SetAudit(true). The configuration is snapshotted under the read
// lock, so a run observes a consistent view even if Set* mutators race
// with it.
func (p *Platform) instance(check func(*cli.RunSpec) error) (*system.Instance, *audit.Auditor, error) {
	p.mu.RLock()
	spec := p.spec
	var stragglers map[NodeID]float64
	if len(p.stragglers) > 0 {
		stragglers = make(map[NodeID]float64, len(p.stragglers))
		for node, factor := range p.stragglers {
			stragglers[node] = factor
		}
	}
	p.mu.RUnlock()

	if err := spec.Validate(optionNames); err != nil {
		return nil, nil, err
	}
	if check != nil {
		if err := check(&spec); err != nil {
			return nil, nil, err
		}
	}
	return spec.NewInstance(p.topo, stragglers)
}

// auditErr converts a finished run's audit report into an error (nil when
// auditing is off or the run held every invariant).
func auditErr(aud *audit.Auditor) error {
	if aud == nil {
		return nil
	}
	return aud.Report().Err()
}

// SetStraggler marks one NPU as a straggler whose endpoint (NMU)
// processing is factor times slower in every subsequent run — the
// fault-injection hook for resilience studies. Factor 1 clears it. The
// node must exist on this platform's topology and the factor must be
// positive; both arrive from user input, so violations are errors.
func (p *Platform) SetStraggler(node NodeID, factor float64) error {
	if node < 0 || int(node) >= p.topo.NumNPUs() {
		return fmt.Errorf("astrasim: straggler node %d out of range (%d NPUs)", node, p.topo.NumNPUs())
	}
	if factor <= 0 {
		return fmt.Errorf("astrasim: straggler factor must be positive, got %v", factor)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if factor == 1 {
		delete(p.stragglers, node)
		return nil
	}
	if p.stragglers == nil {
		p.stragglers = make(map[NodeID]float64)
	}
	p.stragglers[node] = factor
	return nil
}

// Option customizes a Platform.
type Option func(*cli.RunSpec)

// WithAlgorithm selects baseline or enhanced hierarchical collectives.
func WithAlgorithm(a Algorithm) Option {
	return func(s *cli.RunSpec) { s.System.Algorithm = a }
}

// WithSchedulingPolicy selects LIFO or FIFO ready-queue order.
func WithSchedulingPolicy(p SchedulingPolicy) Option {
	return func(s *cli.RunSpec) { s.System.SchedulingPolicy = p }
}

// WithBackend selects the network backend (packet or fast) at
// construction; SetBackend changes it later.
func WithBackend(b Backend) Option {
	return func(s *cli.RunSpec) { s.System.Backend = b }
}

// WithIntraParallel partitions each packet-backend simulation across n
// shard-pool workers for intra-run parallel execution (DESIGN.md §13).
// Results are byte-identical to the serial engine at any worker count;
// 0 (the default) keeps the serial engine. The fast backend ignores it.
// Incompatible with fault plans and point-to-point sends, which need the
// serial engine.
func WithIntraParallel(n int) Option {
	return func(s *cli.RunSpec) { s.System.IntraParallel = n }
}

// Placement says where a layer's (or graph node's) tensors live relative
// to the disaggregated remote-memory tier configured by WithRemoteMemory.
type Placement = compute.Placement

// Tensor placements.
const (
	PlaceLocal       = compute.PlaceLocal
	PlaceRemote      = compute.PlaceRemote
	PlaceInterleaved = compute.PlaceInterleaved
)

// WithRemoteMemory attaches a disaggregated (CXL-style pooled) remote-
// memory tier: bandwidth in bytes/cycle and per-access latency in cycles.
// Layers or graph nodes placed on the tier (Placement remote/interleaved)
// pay a pool stall on top of their local memory path; bandwidth 0 (the
// default) disables the tier at zero overhead, and then the latency must
// be 0 too.
func WithRemoteMemory(bandwidth float64, latency uint64) Option {
	return func(s *cli.RunSpec) {
		s.System.RemoteMemBandwidth = bandwidth
		s.System.RemoteMemLatency = latency
	}
}

// WithSetSplits sets the preferred number of chunks per collective set.
func WithSetSplits(n int) Option {
	return func(s *cli.RunSpec) { s.System.PreferredSetSplits = n }
}

// WithEndpointDelay sets the NMU per-message receive delay in cycles.
func WithEndpointDelay(cycles uint64) Option {
	return func(s *cli.RunSpec) { s.System.EndpointDelay = cycles }
}

// WithNetwork replaces the whole network parameter set.
func WithNetwork(n NetworkConfig) Option {
	return func(s *cli.RunSpec) { s.Network = n }
}

// WithSymmetricLinks makes intra-package links identical to inter-package
// links (the symmetric configurations of §V-B/V-C).
func WithSymmetricLinks() Option {
	return func(s *cli.RunSpec) { s.Network = s.Network.Symmetric() }
}

// WithRings sets the ring multiplicities: local counts unidirectional
// rings; horizontal and vertical count bidirectional rings.
func WithRings(local, horizontal, vertical int) Option {
	return func(s *cli.RunSpec) {
		s.Rings.LocalRings, s.Rings.HorizontalRings, s.Rings.VerticalRings = local, horizontal, vertical
	}
}

// WithGlobalSwitches sets the alltoall topology's switch count.
func WithGlobalSwitches(n int) Option {
	return func(s *cli.RunSpec) { s.Rings.GlobalSwitches = n }
}

// WithLocalSwitches sets the per-package switch count of a switched
// platform.
func WithLocalSwitches(n int) Option {
	return func(s *cli.RunSpec) { s.Rings.LocalSwitches = n }
}

// newPlatform resolves the options against Table IV defaults on the given
// topology spec and builds the platform's topology with build.
func newPlatform(spec string, opts []Option, build func(*cli.RunSpec) (topology.Topology, error)) (*Platform, error) {
	s := cli.NewRunSpec(spec)
	for _, f := range opts {
		f(&s)
	}
	topo, err := build(&s)
	if err != nil {
		return nil, err
	}
	return &Platform{topo: topo, spec: s}, nil
}

// NewTorusPlatform builds an MxNxK hierarchical torus platform: local x
// horizontal x vertical (paper Fig. 3a).
func NewTorusPlatform(local, horizontal, vertical int, opts ...Option) (*Platform, error) {
	return newPlatform("", opts, func(s *cli.RunSpec) (topology.Topology, error) {
		return topology.NewTorus(local, horizontal, vertical, s.Rings.Torus())
	})
}

// NewTorusNDPlatform builds an N-dimensional hierarchical torus platform —
// the paper's 4D/5D future-work topologies. sizes[0] is the local
// (intra-package) dimension; every further entry is an inter-package ring
// axis, phased in order by hierarchical collectives. Ring multiplicities
// follow WithRings for the first three axes (further axes default to 2
// bidirectional rings).
func NewTorusNDPlatform(sizes []int, opts ...Option) (*Platform, error) {
	return newPlatform("", opts, func(s *cli.RunSpec) (topology.Topology, error) {
		if len(sizes) < 2 {
			return nil, fmt.Errorf("astrasim: an N-dimensional torus needs a local and at least one package axis, got %v", sizes)
		}
		return topology.NewHierarchical(s.Rings.TorusSpecs(sizes))
	})
}

// NewScaleOutPlatform builds the scale-out extension: pods copies of an
// MxNxK torus pod joined through an ethernet-like spine (the paper's
// concluding future-work item). The spine switch count comes from
// WithGlobalSwitches (default 2); scale-out link and transport parameters
// live in the network config (WithNetwork).
func NewScaleOutPlatform(podLocal, podHorizontal, podVertical, pods int, opts ...Option) (*Platform, error) {
	return newPlatform("", opts, func(s *cli.RunSpec) (topology.Topology, error) {
		pod, err := topology.NewTorus(podLocal, podHorizontal, podVertical, s.Rings.Torus())
		if err != nil {
			return nil, err
		}
		return topology.NewScaleOut(pod, pods, s.Rings.GlobalSwitches)
	})
}

// NewSwitchedPlatform builds the switch-based scale-up topology (§III-C's
// future-work list; NVSwitch/DGX-style): each package's M NPUs connect
// all-to-all through per-package local switches, and the N packages
// connect through global switches. Local switch count comes from
// WithLocalSwitches (default 1), global from WithGlobalSwitches.
func NewSwitchedPlatform(local, packages int, opts ...Option) (*Platform, error) {
	return newPlatform("", opts, func(s *cli.RunSpec) (topology.Topology, error) {
		return topology.NewSwitched(local, packages, topology.SwitchedConfig{
			LocalSwitches: s.Rings.LocalSwitches, GlobalSwitches: s.Rings.GlobalSwitches})
	})
}

// NewPlatformFromSpec builds a platform from a textual topology spec —
// the grammar shared by the CLI tools and the astrasimd service:
//
//	"MxNxK"        hierarchical 3D torus (local x horizontal x vertical)
//	"MxA1x...xAd"  N-dimensional torus for d != 2 inter axes
//	"a2a:MxN"      hierarchical alltoall
//	"sw:MxN"       switch-based (NVSwitch-style) scale-up
//	"so:MxNxK/P"   P pods of an MxNxK torus over a scale-out spine
//	"hier:..."     compositional N-dim hierarchy: comma list of
//	               <ring|fc|sw><size>[x<lanes>][@<local|pkg|so>]
//	               dimensions, e.g. "hier:sw8,fc4,ring32" (DGX-like)
//
// Options apply exactly as for the typed constructors (WithRings,
// WithGlobalSwitches, WithLocalSwitches, WithBackend, ...).
func NewPlatformFromSpec(spec string, opts ...Option) (*Platform, error) {
	return newPlatform(spec, opts, (*cli.RunSpec).BuildTopology)
}

// NewAllToAllPlatform builds an MxN hierarchical alltoall platform: M NPUs
// per package, N packages connected through global switches (Fig. 3b).
func NewAllToAllPlatform(local, packages int, opts ...Option) (*Platform, error) {
	return newPlatform("", opts, func(s *cli.RunSpec) (topology.Topology, error) {
		return topology.NewA2A(local, packages, topology.A2AConfig{
			LocalRings: s.Rings.LocalRings, GlobalSwitches: s.Rings.GlobalSwitches})
	})
}

// NodeID identifies an NPU.
type NodeID = topology.Node

// IdentityMapping returns the 1:1 logical-to-physical permutation.
func IdentityMapping(n int) []NodeID { return topology.IdentityMapping(n) }

// MapOnto returns a platform that runs p's *logical* topology (its
// dimensions, rings and collective algorithms) over phys's *physical*
// links — the paper's logical/physical split (§IV-B). Logical NPU i is
// placed at physical NPU perm[i]; logical ring hops become shortest-path
// multi-hop routes through the physical fabric. System and network
// parameters are taken from p.
func (p *Platform) MapOnto(phys *Platform, perm []NodeID) (*Platform, error) {
	m, err := topology.NewMapped(p.topo, phys.topo, perm)
	if err != nil {
		return nil, err
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	return &Platform{topo: m, spec: p.spec}, nil
}

// Name describes the platform's topology (e.g. "4x4x4 torus").
func (p *Platform) Name() string { return p.topo.Name() }

// NumNPUs returns the platform's NPU count.
func (p *Platform) NumNPUs() int { return p.topo.NumNPUs() }

// RunCollective simulates one collective of op over bytes and returns its
// completed handle with timing and per-phase breakdowns.
func (p *Platform) RunCollective(op Op, bytes int64) (*CollectiveResult, error) {
	run, err := p.RunCollectiveDetailed(op, bytes)
	if err != nil {
		return nil, err
	}
	return run.CollectiveResult, nil
}

// EnergyParams are the per-bit/per-MAC energy costs of the energy-cost
// extension; DefaultEnergyParams returns literature-typical values.
type EnergyParams = energy.Params

// DefaultEnergyParams returns literature-typical multi-chip energy costs.
func DefaultEnergyParams() EnergyParams { return energy.Default() }

// EnergyBreakdown reports joules per component.
type EnergyBreakdown = energy.Breakdown

// CollectiveRun couples a completed collective with fabric-level traffic
// and energy statistics.
type CollectiveRun struct {
	*CollectiveResult
	// IntraPackageBytes / InterPackageBytes / ScaleOutBytes are the
	// bytes carried per link class across the whole run.
	IntraPackageBytes int64
	InterPackageBytes int64
	ScaleOutBytes     int64
	// Energy is the communication energy at DefaultEnergyParams.
	Energy EnergyBreakdown
	// DroppedPackets and RetransmittedBytes report the fault subsystem's
	// activity (zero unless a fault plan with drops was set).
	DroppedPackets     uint64
	RetransmittedBytes int64
}

// RunCollectiveDetailed is RunCollective plus per-class traffic and the
// communication-energy breakdown.
func (p *Platform) RunCollectiveDetailed(op Op, bytes int64) (*CollectiveRun, error) {
	inst, aud, err := p.instance(nil)
	if err != nil {
		return nil, err
	}
	h, err := inst.RunCollective(op, bytes)
	if err != nil {
		return nil, err
	}
	if err := auditErr(aud); err != nil {
		return nil, err
	}
	intra, inter, scaleOut := inst.Net.TotalBytesByClass()
	return &CollectiveRun{
		CollectiveResult:   h,
		IntraPackageBytes:  intra,
		InterPackageBytes:  inter,
		ScaleOutBytes:      scaleOut,
		Energy:             energy.CommEnergy(intra, inter, scaleOut, energy.Default()),
		DroppedPackets:     inst.Net.DropStats().DroppedPackets,
		RetransmittedBytes: inst.Sys.RetransmittedBytes(),
	}, nil
}

// Train simulates the workload's training loop for the given number of
// forward/backward passes.
func (p *Platform) Train(def Definition, passes int) (TrainingResult, error) {
	inst, aud, err := p.instance(nil)
	if err != nil {
		return TrainingResult{}, err
	}
	tr, err := workload.NewTrainer(inst, def, passes)
	if err != nil {
		return TrainingResult{}, err
	}
	res, err := tr.Run()
	if err != nil {
		return res, err
	}
	return res, auditErr(aud)
}

// PipelineConfig describes a GPipe-style pipeline-parallel run (the third
// §III-A strategy): layer-range stages on specific NPUs, microbatches,
// and the stage-boundary tensor sizes.
type PipelineConfig = workload.PipelineConfig

// PipelineResult is the outcome of a pipeline-parallel simulation.
type PipelineResult = workload.PipelineResult

// PipelineSchedule orders each stage's pending microbatch work.
type PipelineSchedule = workload.PipelineSchedule

// Pipeline schedules.
const (
	GPipeSchedule    = workload.GPipeSchedule
	OneFOneBSchedule = workload.OneFOneBSchedule
)

// AutoPartition cuts a workload into stages of roughly equal compute.
func AutoPartition(def Definition, stages int) []int {
	return workload.AutoPartition(def, stages)
}

// TrainPipeline simulates pipeline-parallel training: stages run their
// layer ranges on their NPUs, and microbatch activations/gradients cross
// stage boundaries point-to-point over the fabric. Point-to-point sends
// need the serial engine, so a platform built WithIntraParallel rejects
// it up front, as RunGraph rejects a graph with SEND/RECV nodes.
func (p *Platform) TrainPipeline(def Definition, cfg PipelineConfig, passes int) (PipelineResult, error) {
	inst, aud, err := p.instance(func(s *cli.RunSpec) error { return s.ValidateSends("TrainPipeline", optionNames) })
	if err != nil {
		return PipelineResult{}, err
	}
	res, err := workload.RunPipeline(inst, def, cfg, passes)
	if err != nil {
		return res, err
	}
	return res, auditErr(aud)
}

// WorkloadGraph is an execution-trace DAG (Chakra-style): COMP, COMM,
// SEND/RECV, and MEM nodes with explicit dependency edges, replayed by a
// dependency-driven scheduler instead of the fixed layer-wise training
// loop. Build one with LoadGraph/ParseGraph, compile one from a
// layer-wise Definition with CompileGraph, or generate a 1F1B pipeline
// schedule with Pipeline1F1BGraph.
type WorkloadGraph = graph.Graph

// GraphNode is one node of a WorkloadGraph.
type GraphNode = graph.Node

// LoadGraph reads and validates a JSON execution graph from a file.
func LoadGraph(path string) (*WorkloadGraph, error) { return graph.Load(path) }

// ParseGraph reads and validates a JSON execution graph.
func ParseGraph(name string, r io.Reader) (*WorkloadGraph, error) { return graph.Parse(name, r) }

// WriteGraph emits a graph as indented JSON (the -graph-dump format).
func WriteGraph(w io.Writer, g *WorkloadGraph) error { return graph.Write(w, g) }

// CompileGraph unrolls a layer-wise workload definition into an execution
// graph whose replay is cycle-exact with Train.
func CompileGraph(def Definition, passes int) (*WorkloadGraph, error) {
	return workload.FromDefinition(def, passes)
}

// Pipeline1F1BGraph generates a static 1F1B (PipeDream-Flush) pipeline-
// parallel schedule as an execution graph: per-stage warm-up forwards,
// steady-state one-forward-one-backward pairs, and a drain, with
// activation and gradient tensors crossing stage boundaries as SEND/RECV
// pairs.
func Pipeline1F1BGraph(def Definition, cfg PipelineConfig, passes int) (*WorkloadGraph, error) {
	return workload.Pipeline1F1B(def, cfg, passes)
}

// ModelSpec is a versioned JSON model description — an explicit layer
// stack or a transformer shorthand expanded analytically (DESIGN.md
// §15). Build one with LoadModelSpec/ParseModelSpec.
type ModelSpec = modelgen.Spec

// TransformerSpec is ModelSpec's transformer shorthand: layer count,
// hidden width, heads, sequence length, vocab, and optional MoE routing.
type TransformerSpec = modelgen.TransformerSpec

// MoESpec routes every k-th transformer MLP through a pool of experts.
type MoESpec = modelgen.MoESpec

// ModelLayerSpec is one layer of a ModelSpec's explicit layer stack.
type ModelLayerSpec = modelgen.LayerSpec

// ParallelismPlan is a versioned JSON parallelism strategy: dp/tp/pp/ep
// degrees, ZeRO stage, microbatch count, interleaving factor, and the
// scope/placement knobs that map the strategy onto a platform.
type ParallelismPlan = modelgen.Plan

// LoadModelSpec reads and validates a model spec from a file.
func LoadModelSpec(path string) (*ModelSpec, error) { return modelgen.LoadSpec(path) }

// ParseModelSpec reads and validates a model spec.
func ParseModelSpec(name string, r io.Reader) (*ModelSpec, error) {
	return modelgen.ParseSpec(name, r)
}

// LoadPlan reads and validates a parallelism plan from a file.
func LoadPlan(path string) (*ParallelismPlan, error) { return modelgen.LoadPlan(path) }

// ParsePlan reads and validates a parallelism plan.
func ParsePlan(name string, r io.Reader) (*ParallelismPlan, error) {
	return modelgen.ParsePlan(name, r)
}

// CompileModel lowers a model spec under a parallelism plan into an
// execution graph unrolled over steps training steps (0 = one step):
// ZeRO-sharded data parallelism, tensor-parallel all-reduces,
// (interleaved) 1F1B pipeline schedules, and MoE all-to-alls, with the
// generated communication volume matching modelgen's closed-form
// oracle exactly. Replay the result with RunGraph.
func CompileModel(spec *ModelSpec, plan *ParallelismPlan, steps int) (*WorkloadGraph, error) {
	return modelgen.Compile(spec, plan, modelgen.Options{Steps: steps})
}

// RunGraph replays an execution graph over the platform and folds
// per-node accounting into a TrainingResult (per-layer compute, raw and
// exposed communication).
func (p *Platform) RunGraph(g *WorkloadGraph) (TrainingResult, error) {
	inst, aud, err := p.instance(func(s *cli.RunSpec) error { return s.ValidateGraph(g, optionNames) })
	if err != nil {
		return TrainingResult{}, err
	}
	res, err := graph.Run(inst, g)
	if err != nil {
		return res, err
	}
	return res, auditErr(aud)
}

// ResNet50 returns the data-parallel ResNet-50 workload at the given local
// minibatch size, with compute delays from the default accelerator model.
func ResNet50(batch int) Definition { return models.ResNet50(compute.Default(), batch) }

// ResNet50ActivationBytes returns each ResNet-50 layer's output activation
// size (the candidate stage-boundary tensors for TrainPipeline).
func ResNet50ActivationBytes(batch int) []int64 { return models.ResNet50ActivationBytes(batch) }

// VGG16 returns the data-parallel VGG-16 workload (~138M parameters).
func VGG16(batch int) Definition { return models.VGG16(compute.Default(), batch) }

// BERTLarge returns the hybrid-parallel BERT-Large encoder workload.
func BERTLarge(batch, seqLen int) Definition {
	return models.BERTLarge(compute.Default(), batch, seqLen)
}

// Transformer returns the hybrid-parallel Transformer encoder workload.
func Transformer(batch, seqLen int) Definition {
	return models.Transformer(compute.Default(), batch, seqLen)
}

// DLRM returns the all-to-all-heavy recommendation-model workload.
func DLRM(batch int) Definition { return models.DLRM(compute.Default(), batch) }

// ParseWorkload reads a Fig. 8-format workload description.
func ParseWorkload(name string, r io.Reader) (Definition, error) {
	return workload.Parse(name, r)
}

// WriteWorkload emits a workload description in the Fig. 8 format.
func WriteWorkload(w io.Writer, d Definition) error { return workload.Write(w, d) }
