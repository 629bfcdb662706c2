package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"astrasim/internal/cli"
	"astrasim/internal/cli/clitest"
)

// compileBody decodes a submission body the way handleSubmit does and
// compiles it.
func compileBody(t *testing.T, body string) (*compiled, error) {
	t.Helper()
	var sub Submission
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sub); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return compile(&sub)
}

// TestContentAddressResolvesDefaults pins DESIGN §12.2: submissions that
// simulate identically share one content address, whichever defaults
// they spell out, however they case their tokens and whichever alias of
// a built-in model they name; scheduling-only fields (intra_parallel,
// priority) stay out of the hash; and a setting that changes the
// simulation changes the address.
func TestContentAddressResolvesDefaults(t *testing.T) {
	const coll = `"topology": "1x4x1", "backend": "fast", "collective": {"op": "allreduce", "bytes": 65536}`
	const model = `"model": {"version": 1, "name": "svc-lm", "batch": 4, "transformer":
		{"layers": 2, "hidden": 32, "heads": 4, "seq": 16, "vocab": 64}},
		"plan": {"version": 1, "name": "svc-dp2", "dp": 2, "zero_stage": 1, "microbatches": 2}`
	cases := []struct {
		name string
		a, b string
		same bool
	}{
		{"set_splits omitted vs 64", `{` + coll + `}`, `{` + coll + `, "set_splits": 64}`, true},
		{"op case", `{` + coll + `}`,
			`{"topology": "1x4x1", "backend": "fast", "collective": {"op": "AllReduce", "bytes": 65536}}`, true},
		{"workload defaults spelled out", `{"topology": "1x4x1", "workload": {"model": "resnet50"}}`,
			`{"topology": "1x4x1", "workload": {"model": "resnet50", "batch": 32, "passes": 1, "seq_len": 128}}`, true},
		{"workload model case", `{"topology": "1x4x1", "workload": {"model": "dlrm"}}`,
			`{"topology": "1x4x1", "workload": {"model": "DLRM"}}`, true},
		{"workload model alias", `{"topology": "1x4x1", "workload": {"model": "resnet-50"}}`,
			`{"topology": "1x4x1", "workload": {"model": "resnet50"}}`, true},
		{"model_steps 0 vs 1", `{"topology": "1x4x1", ` + model + `}`,
			`{"topology": "1x4x1", ` + model + `, "model_steps": 1}`, true},
		{"ring and switch defaults", `{` + coll + `}`,
			`{` + coll + `, "local_rings": 2, "horizontal_rings": 2, "vertical_rings": 2, "global_switches": 2, "algorithm": "baseline"}`, true},
		{"intra_parallel", `{` + coll + `}`, `{` + coll + `, "intra_parallel": 2}`, true},
		{"priority", `{` + coll + `}`, `{` + coll + `, "priority": 7}`, true},
		{"set_splits 16 vs 64", `{` + coll + `, "set_splits": 16}`, `{` + coll + `, "set_splits": 64}`, false},
	}
	for _, tc := range cases {
		a, err := compileBody(t, tc.a)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b, err := compileBody(t, tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (a.id == b.id) != tc.same {
			t.Errorf("%s: ids %s / %s, want same=%v", tc.name, a.id, b.id, tc.same)
		}
		if tc.same && a.graph != nil && len(a.graph.Nodes) != len(b.graph.Nodes) {
			t.Errorf("%s: one address for graphs of %d and %d nodes", tc.name, len(a.graph.Nodes), len(b.graph.Nodes))
		}
	}
}

// TestExclusionMatrix drives every matrix cell through compile: rejected
// cells are 400s that name the table's reason in JSON keys.
func TestExclusionMatrix(t *testing.T) {
	for _, c := range clitest.Cells() {
		body := fmt.Sprintf(`{"topology": "1x4x1", "backend": %q, "intra_parallel": %d, "graph": %s`,
			c.Backend, c.IntraParallel, clitest.GraphJSON(c.SendRecv))
		if c.Faults {
			body += `, "faults": ` + clitest.PlanJSON
		}
		_, err := compileBody(t, body+"}")
		var bad *badRequest
		if err != nil && !errors.As(err, &bad) {
			t.Errorf("%v: %v is not a 400", c, err)
		}
		clitest.Check(t, c, err, c.Want(t, cli.JSONNames))
	}
}
