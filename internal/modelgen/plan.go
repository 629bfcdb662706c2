package modelgen

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"astrasim/internal/compute"
	"astrasim/internal/topology"
)

// PlanVersion is the parallelism-plan format version ParsePlan accepts.
const PlanVersion = 1

// Plan is a versioned parallelism strategy: the four degrees, the ZeRO
// stage, the pipeline microbatch/interleave shape, and the knobs that
// place the resulting collectives on the simulated platform.
//
// The degrees drive the volume algebra; the scopes drive where the
// simulated collectives run. modelgen compiles topology-free, so
// keeping degree and scoped-dimension sizes consistent is the plan
// author's contract (the committed examples and the extparallel study
// show consistent pairs).
type Plan struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	// DP/TP/PP/EP are the data-, tensor-, pipeline- and expert-parallel
	// degrees (0 = default 1).
	DP int `json:"dp,omitempty"`
	TP int `json:"tp,omitempty"`
	PP int `json:"pp,omitempty"`
	EP int `json:"ep,omitempty"`
	// ZeROStage selects the gradient/optimizer/parameter sharding level
	// (0 = plain all-reduce data parallelism, 3 = FSDP).
	ZeROStage int `json:"zero_stage,omitempty"`
	// Microbatches splits the model's minibatch (0 = default 1); must
	// divide the spec's batch.
	Microbatches int `json:"microbatches,omitempty"`
	// Interleave is the Megatron virtual-pipeline chunk count per stage
	// (0 = default 1); > 1 requires pp > 1 and microbatches % pp == 0.
	Interleave int `json:"interleave,omitempty"`
	// CapacityFactor scales MoE dispatch/combine payloads (0 = 1.0).
	CapacityFactor float64 `json:"capacity_factor,omitempty"`
	// TPScope/DPScope/EPScope restrict the strategy's collectives to
	// '+'-separated topology dimensions (empty = all dimensions).
	TPScope string `json:"tp_scope,omitempty"`
	DPScope string `json:"dp_scope,omitempty"`
	EPScope string `json:"ep_scope,omitempty"`
	// OptimizerPlacement is the memory tier holding optimizer state and
	// gradient shards ("local", "interleaved", "remote"; empty =
	// local). It lands on every ZeRO COMM node, so a configured
	// remote-memory pool charges its stall there; without a pool the
	// placement is free.
	OptimizerPlacement string `json:"optimizer_placement,omitempty"`
	// ExpertPermutation relabels which expert ids land on which
	// expert-parallel group (identity when empty). It must be a
	// permutation of 0..experts-1; the communication volume is
	// invariant under it (asserted by a metamorphic rule).
	ExpertPermutation []int `json:"expert_permutation,omitempty"`
	// UpdatePerKB is the optimizer's local update time applied after
	// gradient collectives (cycles per KB, the paper's Fig. 8 knob).
	UpdatePerKB uint64 `json:"update_per_kb,omitempty"`
}

// ParsePlan decodes and validates a parallelism plan. Unknown fields
// are rejected; name labels errors.
func ParsePlan(name string, r io.Reader) (*Plan, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("modelgen: parsing plan %s: %w", name, err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// LoadPlan reads a parallelism plan from a file.
func LoadPlan(path string) (*Plan, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return ParsePlan(path, fh)
}

func (p *Plan) label() string {
	if p.Name != "" {
		return p.Name
	}
	return "(unnamed)"
}

// Degree accessors with the 0-means-1 default applied.
func (p *Plan) dp() int { return defDegree(p.DP) }
func (p *Plan) tp() int { return defDegree(p.TP) }
func (p *Plan) pp() int { return defDegree(p.PP) }
func (p *Plan) ep() int { return defDegree(p.EP) }
func (p *Plan) microbatches() int {
	return defDegree(p.Microbatches)
}
func (p *Plan) interleave() int { return defDegree(p.Interleave) }
func (p *Plan) capacity() float64 {
	if p.CapacityFactor == 0 {
		return 1
	}
	return p.CapacityFactor
}

func defDegree(v int) int {
	if v == 0 {
		return 1
	}
	return v
}

// Validate reports the first inconsistency, naming the offending field.
func (p *Plan) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("modelgen: plan %s: %s", p.label(), fmt.Sprintf(format, args...))
	}
	if p.Version != PlanVersion {
		return bad("version must be %d, got %d", PlanVersion, p.Version)
	}
	if p.Name == "" {
		return bad("name is required")
	}
	for _, d := range []struct {
		field string
		v     int
	}{
		{"dp", p.DP}, {"tp", p.TP}, {"pp", p.PP}, {"ep", p.EP},
		{"microbatches", p.Microbatches}, {"interleave", p.Interleave},
	} {
		if d.v < 0 {
			return bad("%s must be >= 1 (or 0 for the default), got %d", d.field, d.v)
		}
	}
	if p.ZeROStage < 0 || p.ZeROStage > 3 {
		return bad("zero_stage must be in [0, 3], got %d", p.ZeROStage)
	}
	if p.ZeROStage > 0 && p.dp() == 1 {
		return bad("zero_stage %d needs dp > 1", p.ZeROStage)
	}
	if p.CapacityFactor < 0 {
		return bad("capacity_factor must be positive (or 0 for the default 1.0), got %g", p.CapacityFactor)
	}
	if p.interleave() > 1 {
		if p.pp() == 1 {
			return bad("interleave %d requires pp > 1", p.interleave())
		}
		if p.microbatches()%p.pp() != 0 {
			return bad("interleave %d requires microbatches (%d) %% pp (%d) == 0",
				p.interleave(), p.microbatches(), p.pp())
		}
	}
	for _, s := range []struct {
		field string
		v     string
	}{
		{"tp_scope", p.TPScope}, {"dp_scope", p.DPScope}, {"ep_scope", p.EPScope},
	} {
		if _, err := topology.ParseScope(s.v); err != nil {
			return bad("%s: %v", s.field, err)
		}
	}
	if _, err := compute.ParsePlacement(p.OptimizerPlacement); err != nil {
		return bad("optimizer_placement: %v", err)
	}
	if len(p.ExpertPermutation) > 0 {
		// Bijectivity is checkable here; whether its length matches the
		// model's expert count is checked at compile time.
		seen := make(map[int]bool, len(p.ExpertPermutation))
		for i, e := range p.ExpertPermutation {
			if e < 0 || e >= len(p.ExpertPermutation) {
				return bad("expert_permutation[%d] = %d out of range [0, %d)", i, e, len(p.ExpertPermutation))
			}
			if seen[e] {
				return bad("expert_permutation[%d] = %d repeats an expert", i, e)
			}
			seen[e] = true
		}
	}
	return nil
}
