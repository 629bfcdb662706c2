package service

// Submission schema and validation. Everything a client can send is
// checked here, before any simulation state exists: the submission
// either compiles into a runnable job or is rejected with a 4xx naming
// the offending field. The run settings decode into the same
// cli.RunSpec the CLI tools fill from their flags, checked by the same
// exclusion table, and the job reuses the same graph/workload/model
// loaders, so the service accepts exactly the configuration language the
// rest of the repo speaks.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"astrasim"
	"astrasim/internal/cli"
	"astrasim/internal/collectives"
	"astrasim/internal/compute"
	"astrasim/internal/config"
	"astrasim/internal/modelgen"
	"astrasim/internal/models"
)

// CollectiveSpec asks for one collective operation, the bandwidth-test
// microbenchmark of cmd/collectives.
type CollectiveSpec struct {
	// Op is reducescatter|allgather|allreduce|alltoall.
	Op    string `json:"op"`
	Bytes int64  `json:"bytes"`
}

// WorkloadSpec asks for an end-to-end training simulation: either a
// built-in model or an inline Fig. 8-format definition.
type WorkloadSpec struct {
	// Model is a built-in workload, resnet50|vgg16|bertlarge|transformer|dlrm
	// (models.LookupBuiltin; resnet-50 is accepted and canonicalized to
	// resnet50), exclusive with Text.
	Model string `json:"model,omitempty"`
	Batch int    `json:"batch,omitempty"`
	// SeqLen applies to the sequence models (bertlarge, transformer).
	SeqLen int `json:"seq_len,omitempty"`
	// Text is an inline workload definition in the Fig. 8 format.
	Text string `json:"text,omitempty"`
	// Passes is the number of forward/backward passes (default 1).
	Passes int `json:"passes,omitempty"`
}

// Submission is the POST /v1/jobs request body. Exactly one of
// Collective, Workload, Graph, Model+Plan selects the job kind. Priority orders the
// queue (higher first) and is excluded from the content hash — the same
// simulation at a different priority is the same result.
type Submission struct {
	// Topology is the shared spec grammar: "MxNxK", "MxA1x...xAd",
	// "a2a:MxN", "sw:MxN", "so:MxNxK/P", "hier:sw8,fc4,ring32".
	Topology string `json:"topology"`
	// Backend is packet|fast (default packet).
	Backend string `json:"backend,omitempty"`
	// Algorithm is baseline|enhanced (default baseline).
	Algorithm string `json:"algorithm,omitempty"`
	// Scheduling is LIFO|FIFO|priority (default LIFO).
	Scheduling string `json:"scheduling,omitempty"`
	// SetSplits overrides the preferred chunks per collective set.
	SetSplits int `json:"set_splits,omitempty"`
	// Ring/switch multiplicities (defaults match Table IV).
	LocalRings      int `json:"local_rings,omitempty"`
	HorizontalRings int `json:"horizontal_rings,omitempty"`
	VerticalRings   int `json:"vertical_rings,omitempty"`
	GlobalSwitches  int `json:"global_switches,omitempty"`
	// Network overrides the full Garnet-level parameter set (Table IV
	// defaults when absent). Field names are the config.Network ones,
	// e.g. {"LocalPacketSize": 256}.
	Network *config.Network `json:"network,omitempty"`
	// RemoteMemBandwidth/RemoteMemLatency configure the disaggregated
	// remote-memory tier (bytes/cycle and cycles); bandwidth 0 (the
	// default) disables it. Workload layers and graph nodes select
	// placement on the tier individually.
	RemoteMemBandwidth float64 `json:"remote_mem_bandwidth,omitempty"`
	RemoteMemLatency   uint64  `json:"remote_mem_latency,omitempty"`

	Collective *CollectiveSpec `json:"collective,omitempty"`
	Workload   *WorkloadSpec   `json:"workload,omitempty"`
	// Graph is an inline execution-trace DAG (the workloads/*.graph.json
	// schema).
	Graph json.RawMessage `json:"graph,omitempty"`

	// Model and Plan together select the fourth job kind: an inline
	// model spec (internal/modelgen schema, version 1) compiled under an
	// inline parallelism plan into an execution graph on the server.
	// Both are required together; the compiled job runs like a graph
	// submission. ModelSteps is the number of training steps to unroll
	// (default 1).
	Model      json.RawMessage `json:"model,omitempty"`
	Plan       json.RawMessage `json:"plan,omitempty"`
	ModelSteps int             `json:"model_steps,omitempty"`

	// Faults is an inline JSON fault plan (DESIGN.md §8). Requires the
	// packet backend. Like the CLIs, and unlike the lenient library
	// selectors, the service rejects straggler nodes outside the topology
	// (cli.RunSpec.ValidateNPUs).
	Faults json.RawMessage `json:"faults,omitempty"`

	Priority int `json:"priority,omitempty"`

	// IntraParallel partitions the packet-mode simulation across this many
	// shard-pool workers (intra-run parallelism, DESIGN.md §13). Results
	// are byte-identical at any worker count, so — like Priority — it is a
	// scheduling knob excluded from the content hash: the same simulation
	// at a different width is the same result. Requires the packet
	// backend's serial-compatible feature set: incompatible with faults
	// and with graphs containing SEND/RECV nodes (point-to-point needs the
	// serial engine).
	IntraParallel int `json:"intra_parallel,omitempty"`
}

// badRequest is a 4xx validation failure.
type badRequest struct{ msg string }

func (e *badRequest) Error() string { return e.msg }

func badf(format string, args ...any) error {
	return &badRequest{msg: fmt.Sprintf(format, args...)}
}

func asBad(err error) error { return &badRequest{msg: err.Error()} }

// compiled is a validated submission, ready to run: the platform is
// fully configured (backend, fault plan, network parameters) and the
// job kind resolved. id is the content address.
type compiled struct {
	id       string
	kind     string // "collective" | "train" | "graph" | "model"
	priority int

	platform *astrasim.Platform
	op       collectives.Op
	bytes    int64
	def      astrasim.Definition
	passes   int
	graph    *astrasim.WorkloadGraph
}

// RunSpec decodes the submission's run settings into a cli.RunSpec. Every
// omitted field resolves to its Table IV default, and the exclusion table
// (cli.RunSpec.Validate) rejects unsupported combinations, naming the
// JSON keys. Every rejection is a *badRequest (→ 400).
func (sub *Submission) RunSpec() (cli.RunSpec, error) {
	if sub.Topology == "" {
		return cli.RunSpec{}, badf("topology is required")
	}
	s := cli.NewRunSpec(sub.Topology)
	if err := s.SetTokens(sub.Backend, sub.Algorithm, sub.Scheduling); err != nil {
		return cli.RunSpec{}, asBad(err)
	}
	if sub.Network != nil {
		s.Network = *sub.Network
	}
	if err := s.Network.Validate(); err != nil {
		return cli.RunSpec{}, asBad(err)
	}
	for _, knob := range []struct {
		dst *int
		v   int
	}{
		{&s.Rings.LocalRings, sub.LocalRings}, {&s.Rings.HorizontalRings, sub.HorizontalRings},
		{&s.Rings.VerticalRings, sub.VerticalRings}, {&s.Rings.GlobalSwitches, sub.GlobalSwitches},
		{&s.System.PreferredSetSplits, sub.SetSplits},
	} {
		if knob.v != 0 {
			*knob.dst = knob.v
		}
	}
	s.System.RemoteMemBandwidth, s.System.RemoteMemLatency = sub.RemoteMemBandwidth, sub.RemoteMemLatency
	s.System.IntraParallel = sub.IntraParallel
	if len(sub.Faults) > 0 {
		var err error
		if s.Faults, err = astrasim.ParseFaultPlan(bytes.NewReader(sub.Faults)); err != nil {
			return cli.RunSpec{}, asBad(err)
		}
	}
	if err := s.Validate(cli.JSONNames); err != nil {
		return cli.RunSpec{}, asBad(err)
	}
	return s, nil
}

// compile validates a submission end to end and returns the runnable
// job plus its content address. Every rejection is a *badRequest (→
// 400); nothing here mutates shared state.
func compile(sub *Submission) (*compiled, error) {
	spec, err := sub.RunSpec()
	if err != nil {
		return nil, err
	}
	p, err := astrasim.NewPlatformFromSpec(spec.Topology, func(s *cli.RunSpec) { *s = spec })
	if err != nil {
		return nil, asBad(err)
	}
	if err := spec.ValidateNPUs(p.NumNPUs(), cli.JSONNames); err != nil {
		return nil, asBad(err)
	}

	c := &compiled{platform: p, priority: sub.Priority}

	kinds := 0
	if sub.Collective != nil {
		kinds++
	}
	if sub.Workload != nil {
		kinds++
	}
	if len(sub.Graph) > 0 {
		kinds++
	}
	if len(sub.Model) > 0 || len(sub.Plan) > 0 {
		// model+plan is one kind: the pair compiles into a graph.
		kinds++
	}
	if kinds != 1 {
		return nil, badf("exactly one of collective, workload, graph, model+plan is required")
	}

	var job canonicalJob
	switch {
	case sub.Collective != nil:
		c.kind = "collective"
		if c.op, err = collectives.ParseOp(strings.ToUpper(sub.Collective.Op)); err != nil {
			return nil, asBad(err)
		}
		if sub.Collective.Bytes <= 0 {
			return nil, badf("collective bytes must be positive, got %d", sub.Collective.Bytes)
		}
		c.bytes = sub.Collective.Bytes
		job.Op, job.Bytes = c.op.String(), c.bytes

	case sub.Workload != nil:
		c.kind = "train"
		if c.def, c.passes, job.Workload, err = compileWorkload(sub.Workload); err != nil {
			return nil, err
		}

	case len(sub.Model) > 0 || len(sub.Plan) > 0:
		c.kind = "model"
		if len(sub.Model) == 0 {
			return nil, badf("plan requires a model")
		}
		if len(sub.Plan) == 0 {
			return nil, badf("model requires a plan")
		}
		if sub.ModelSteps < 0 {
			return nil, badf("model_steps must be >= 0, got %d", sub.ModelSteps)
		}
		job.Steps = max(sub.ModelSteps, 1)
		mspec, err := modelgen.ParseSpec("submission model", bytes.NewReader(sub.Model))
		if err != nil {
			return nil, asBad(err)
		}
		plan, err := modelgen.ParsePlan("submission plan", bytes.NewReader(sub.Plan))
		if err != nil {
			return nil, asBad(err)
		}
		if c.graph, err = modelgen.Compile(mspec, plan, modelgen.Options{Steps: job.Steps}); err != nil {
			return nil, asBad(err)
		}
		if job.Model, err = canonicalJSON(sub.Model); err != nil {
			return nil, badf("model: %v", err)
		}
		if job.Plan, err = canonicalJSON(sub.Plan); err != nil {
			return nil, badf("plan: %v", err)
		}

	default:
		c.kind = "graph"
		if c.graph, err = astrasim.ParseGraph("submission", bytes.NewReader(sub.Graph)); err != nil {
			return nil, asBad(err)
		}
		if job.Graph, err = canonicalJSON(sub.Graph); err != nil {
			return nil, badf("graph: %v", err)
		}
	}
	if c.graph != nil {
		if err := c.graph.CheckEndpoints(p.NumNPUs()); err != nil {
			return nil, asBad(err)
		}
		if err := spec.ValidateGraph(c.graph, cli.JSONNames); err != nil {
			return nil, asBad(err)
		}
	}

	job.Kind = c.kind
	if c.id, err = contentAddress(spec, job); err != nil {
		return nil, err
	}
	return c, nil
}

// compileWorkload resolves a workload job: the definition to train, the
// pass count, and the spec with every default resolved, for hashing.
func compileWorkload(w *WorkloadSpec) (astrasim.Definition, int, *WorkloadSpec, error) {
	r := &WorkloadSpec{Text: w.Text, Passes: w.Passes, Batch: w.Batch, SeqLen: w.SeqLen}
	if r.Passes == 0 {
		r.Passes = 1
	}
	if r.Passes < 1 {
		return astrasim.Definition{}, 0, nil, badf("workload passes must be >= 1, got %d", w.Passes)
	}
	if (w.Model == "") == (w.Text == "") {
		return astrasim.Definition{}, 0, nil, badf("workload wants exactly one of model, text")
	}
	if w.Text != "" {
		def, err := astrasim.ParseWorkload("submission", strings.NewReader(w.Text))
		if err != nil {
			return astrasim.Definition{}, 0, nil, asBad(err)
		}
		r.Batch, r.SeqLen = 0, 0 // a definition carries its own sizes
		return def, r.Passes, r, nil
	}
	if r.Batch == 0 {
		r.Batch = 32
	}
	if r.Batch < 1 {
		return astrasim.Definition{}, 0, nil, badf("workload batch must be >= 1, got %d", w.Batch)
	}
	if r.SeqLen == 0 {
		r.SeqLen = 128
	}
	if r.SeqLen < 1 {
		return astrasim.Definition{}, 0, nil, badf("workload seq_len must be >= 1, got %d", w.SeqLen)
	}
	b, ok := models.LookupBuiltin(w.Model)
	if !ok {
		return astrasim.Definition{}, 0, nil, badf("unknown workload model %q (want %s)", w.Model, models.BuiltinNames())
	}
	def := b.Build(compute.Default(), r.Batch, r.SeqLen)
	r.Model = b.Name
	if !b.Seq {
		r.SeqLen = 0 // only the sequence models read it
	}
	return def, r.Passes, r, nil
}

// canonicalJob is the job half of the hashed form: the job kind with
// every field resolved to its effective value, and raw JSON sections
// re-marshaled canonically (Go maps marshal with sorted keys).
type canonicalJob struct {
	Kind     string
	Op       string          `json:",omitempty"`
	Bytes    int64           `json:",omitempty"`
	Workload *WorkloadSpec   `json:",omitempty"`
	Graph    json.RawMessage `json:",omitempty"`
	Model    json.RawMessage `json:",omitempty"`
	Plan     json.RawMessage `json:",omitempty"`
	Steps    int             `json:",omitempty"`
}

// contentAddress derives the job's cache key: sha256 over the run spec's
// canonical form and the canonical job. Priority is in neither, and the
// canonical spec drops intra_parallel: both change when or how a job
// runs, never what it computes. The simulator is deterministic
// (DESIGN.md §9: bit-equal reruns), so equal addresses imply byte-equal
// results — the invariant the response cache is built on.
func contentAddress(spec cli.RunSpec, job canonicalJob) (string, error) {
	run, err := spec.Canonical()
	if err != nil {
		return "", fmt.Errorf("service: canonicalizing submission: %w", err)
	}
	b, err := json.Marshal(struct {
		Run json.RawMessage
		Job canonicalJob
	}{run, job})
	if err != nil {
		return "", fmt.Errorf("service: canonicalizing submission: %w", err)
	}
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

// canonicalJSON round-trips raw JSON through interface{} so object keys
// come back sorted: formatting and key order do not perturb the content
// address.
func canonicalJSON(raw json.RawMessage) (json.RawMessage, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}
