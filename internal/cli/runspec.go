package cli

import (
	"encoding/json"
	"flag"
	"fmt"

	"astrasim/internal/audit"
	"astrasim/internal/config"
	"astrasim/internal/faults"
	"astrasim/internal/graph"
	"astrasim/internal/system"
	"astrasim/internal/topology"
)

// RunSpec is one run's configuration, resolved: the paper's Table III
// parameter set with Table IV defaults. The command-line tools bind it to
// flags, the daemon decodes a submission into it, and the astrasim
// facade's options write into it; each checks it with Validate and builds
// from it.
type RunSpec struct {
	// Topology is a BuildTopology spec ("4x4x4", "a2a:1x8",
	// "hier:sw8,fc4,ring32", ...). The facade's typed constructors leave
	// it empty and build their topology directly.
	Topology string
	// Rings carries the ring and switch multiplicities.
	Rings TopologyOptions
	// System and Network are the run-level system and network parameters.
	System  config.System
	Network config.Network
	// Faults, when non-nil, is applied to every instance of the run.
	Faults *faults.Plan
	// Audit attaches the invariant auditor to every instance.
	Audit bool
}

// NewRunSpec returns the Table IV configuration on a topology spec.
func NewRunSpec(topology string) RunSpec {
	return RunSpec{
		Topology: topology,
		Rings:    DefaultTopologyOptions(),
		System:   config.DefaultSystem(),
		Network:  config.DefaultNetwork(),
	}
}

// Names spells the settings that Validate's messages mention the way one
// surface spells them, so a rejection names what its caller typed.
type Names struct {
	Faults, IntraParallel, SetSplits, RemoteMemBandwidth, RemoteMemLatency string
}

var (
	// FlagNames spells settings as the command-line flags do.
	FlagNames = Names{Faults: "-faults", IntraParallel: "-intra-parallel", SetSplits: "-preferred-set-splits",
		RemoteMemBandwidth: "-remote-mem bw", RemoteMemLatency: "-remote-mem lat"}
	// JSONNames spells settings as the daemon's submission keys do.
	JSONNames = Names{Faults: "faults", IntraParallel: "intra_parallel", SetSplits: "set_splits",
		RemoteMemBandwidth: "remote_mem_bandwidth", RemoteMemLatency: "remote_mem_latency"}
)

// Validate is the table of unsupported settings and combinations: each
// row rejects one case with one reason, naming the settings as n spells
// them. ValidateGraph holds the row that needs the run's graph, and
// ValidateNPUs the row that needs its topology. The library keeps its own
// guards (faults.Apply, noc, system) for callers that bypass a RunSpec.
func (s *RunSpec) Validate(n Names) error {
	sys := &s.System
	switch {
	case sys.IntraParallel < 0:
		return fmt.Errorf("%s must be >= 0, got %d", n.IntraParallel, sys.IntraParallel)
	case sys.PreferredSetSplits < 1:
		return fmt.Errorf("%s must be >= 1, got %d", n.SetSplits, sys.PreferredSetSplits)
	case sys.RemoteMemBandwidth < 0:
		return fmt.Errorf("%s must be >= 0, got %v", n.RemoteMemBandwidth, sys.RemoteMemBandwidth)
	case sys.RemoteMemBandwidth == 0 && sys.RemoteMemLatency != 0:
		return fmt.Errorf("%s needs %s > 0", n.RemoteMemLatency, n.RemoteMemBandwidth)
	case s.Faults != nil && sys.Backend != config.PacketBackend:
		return fmt.Errorf("%s requires the packet backend; the %v backend does not model faults", n.Faults, sys.Backend)
	case s.Faults != nil && sys.IntraParallel > 0:
		return fmt.Errorf("%s and %s are mutually exclusive; fault injection needs the serial engine", n.Faults, n.IntraParallel)
	}
	return nil
}

// ValidateGraph is Validate's graph row: SEND/RECV nodes need
// point-to-point sends, which only the serial engine supports.
func (s *RunSpec) ValidateGraph(g *graph.Graph, n Names) error {
	if s.System.IntraParallel == 0 {
		return nil
	}
	for i := range g.Nodes {
		if k := g.Nodes[i].Kind; k == graph.KindSend || k == graph.KindRecv {
			return s.ValidateSends(fmt.Sprintf("graph node %q: SEND/RECV", g.Nodes[i].ID), n)
		}
	}
	return nil
}

// ValidateSends is ValidateGraph's row for a workload that sends point
// to point without a graph to point at; what names it in the rejection.
func (s *RunSpec) ValidateSends(what string, n Names) error {
	if s.System.IntraParallel > 0 {
		return fmt.Errorf("%s needs point-to-point sends, which %s does not support", what, n.IntraParallel)
	}
	return nil
}

// ValidateNPUs is Validate's row that needs the built topology: every
// straggler node of the fault plan must be one of its npus NPUs. A spec
// that names one topology calls it (the CLIs and the daemon); faults.Apply
// skips out-of-range nodes, so one plan can still drive the many
// topologies of a sweep.
func (s *RunSpec) ValidateNPUs(npus int, n Names) error {
	if s.Faults == nil {
		return nil
	}
	for _, st := range s.Faults.Stragglers {
		if st.Node >= npus {
			return fmt.Errorf("%s: straggler node %d out of range (%d NPUs)", n.Faults, st.Node, npus)
		}
	}
	return nil
}

// BuildTopology builds the spec's topology from Topology and Rings.
func (s *RunSpec) BuildTopology() (topology.Topology, error) {
	return BuildTopology(s.Topology, s.Rings, nil)
}

// NewInstance wires one simulation of the spec on topo: a fresh engine,
// system and network from System and Network, then the stragglers (nil
// for none), the auditor when Audit is set (nil otherwise), and the fault
// plan last, so the plan's own straggler entries take precedence.
func (s *RunSpec) NewInstance(topo topology.Topology, stragglers map[topology.Node]float64) (*system.Instance, *audit.Auditor, error) {
	inst, err := system.NewInstance(topo, s.System, s.Network)
	if err != nil {
		return nil, nil, err
	}
	for node, factor := range stragglers {
		if err := inst.Sys.SetNodeStragglerFactor(node, factor); err != nil {
			return nil, nil, err
		}
	}
	var aud *audit.Auditor
	if s.Audit {
		aud = audit.Attach(inst.Sys)
	}
	if s.Faults != nil {
		if err := faults.Apply(s.Faults, inst); err != nil {
			return nil, nil, err
		}
	}
	return inst, aud, nil
}

// Canonical returns the JSON form a content hash is taken over. Every
// field holds its resolved value, so an omitted setting and its explicit
// default canonicalize alike, and the fault plan is re-marshaled from its
// parsed form. IntraParallel is zeroed: it changes how a run executes,
// never its result.
func (s RunSpec) Canonical() ([]byte, error) {
	s.System.IntraParallel = 0
	return json.Marshal(s)
}

// Bind registers the run flags cmd/astrasim and cmd/collectives share:
// the topology, its ring and switch counts, the algorithm, scheduling
// policy, chunk splits and remote-memory tier, plus BindEngine's four.
// Every default is the spec's current value, so a command sets its own
// defaults before binding. switchesFlag names the global switch count's
// flag, which the two tools spell differently.
func (s *RunSpec) Bind(fs *flag.FlagSet, switchesFlag string) {
	_, algorithm, policy := s.tokens()
	fs.StringVar(&s.Topology, "topology", s.Topology, "torus MxNxK (or N-D), alltoall a2a:MxN, or composition hier:sw8,fc4,ring32")
	fs.Var(algorithm, "algorithm", "baseline or enhanced hierarchical collective algorithm")
	fs.Var(policy, "scheduling-policy", "LIFO, FIFO or PRIORITY ready-queue order")
	fs.IntVar(&s.Rings.GlobalSwitches, switchesFlag, s.Rings.GlobalSwitches, "global switches (alltoall, switched and scale-out topologies)")
	fs.IntVar(&s.Rings.LocalRings, "local-rings", s.Rings.LocalRings, "unidirectional local rings")
	fs.IntVar(&s.Rings.HorizontalRings, "horizontal-rings", s.Rings.HorizontalRings, "bidirectional horizontal rings")
	fs.IntVar(&s.Rings.VerticalRings, "vertical-rings", s.Rings.VerticalRings, "bidirectional vertical rings")
	fs.IntVar(&s.System.PreferredSetSplits, "preferred-set-splits", s.System.PreferredSetSplits, "chunks per collective set")
	fs.Func("remote-mem", "disaggregated memory tier, \"bw=<bytes/cycle>[,lat=<cycles>]\" (empty = disabled)", func(v string) (err error) {
		sys := &s.System
		sys.RemoteMemBandwidth, sys.RemoteMemLatency = 0, 0
		if v != "" {
			sys.RemoteMemBandwidth, sys.RemoteMemLatency, err = ParseRemoteMem(v)
		}
		return err
	})
	s.BindEngine(fs)
}

// BindEngine registers the four flags every simulating command shares:
// -backend, -intra-parallel, -faults and -audit. An empty -faults or
// -remote-mem clears the setting.
func (s *RunSpec) BindEngine(fs *flag.FlagSet) {
	backend, _, _ := s.tokens()
	fs.Var(backend, "backend", "network backend: packet (congestion-aware) or fast (congestion-unaware analytical)")
	fs.IntVar(&s.System.IntraParallel, "intra-parallel", s.System.IntraParallel, "shard-pool workers for intra-run parallel packet simulation (0 = serial engine; results are identical at any count)")
	fs.Func("faults", "JSON fault plan applied to every simulation (see DESIGN.md §8); read while the flags parse", func(path string) (err error) {
		s.Faults = nil
		if path != "" {
			s.Faults, err = faults.Load(path)
		}
		return err
	})
	fs.BoolVar(&s.Audit, "audit", s.Audit, "attach the invariant auditor to every simulation and fail on any violation")
}

// SetTokens parses the backend, algorithm and scheduling-policy tokens
// into the spec; an empty token keeps the spec's value.
func (s *RunSpec) SetTokens(backend, algorithm, policy string) error {
	b, a, p := s.tokens()
	for _, t := range []struct {
		v   flag.Value
		tok string
	}{{b, backend}, {a, algorithm}, {p, policy}} {
		if t.tok != "" {
			if err := t.v.Set(t.tok); err != nil {
				return err
			}
		}
	}
	return nil
}

// tokens returns the spec's backend, algorithm and scheduling policy as
// flag values that parse their config tokens.
func (s *RunSpec) tokens() (backend, algorithm, policy flag.Value) {
	return token[config.Backend]{&s.System.Backend, config.ParseBackend},
		token[config.Algorithm]{&s.System.Algorithm, config.ParseAlgorithm},
		token[config.SchedulingPolicy]{&s.System.SchedulingPolicy, config.ParseSchedulingPolicy}
}

// token binds a flag to a config enum through the enum's parser.
type token[T fmt.Stringer] struct {
	p     *T
	parse func(string) (T, error)
}

func (t token[T]) String() string {
	if t.p == nil {
		return ""
	}
	return (*t.p).String()
}

func (t token[T]) Set(s string) error {
	v, err := t.parse(s)
	if err != nil {
		return err
	}
	*t.p = v
	return nil
}
