package graph_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"astrasim/internal/eventq"
	"astrasim/internal/graph"
	"astrasim/internal/system"
)

// goldenPath holds the results TestConverterCycleExact pins: one entry per
// case, recorded from the layer-wise training loop that FromDefinition
// unrolls. It is a fixed reference, not a snapshot of the graph path:
// never regenerate it from the code under test.
var goldenPath = filepath.Join("testdata", "layerwise_golden.json")

// goldenLayer is one stats row: its cycle totals and the [CreatedAt,
// DoneAt] span of every collective it issued, per pass bucket.
type goldenLayer struct {
	Name       string           `json:"name"`
	Compute    uint64           `json:"compute"`
	Fwd        uint64           `json:"fwd"`
	IG         uint64           `json:"ig"`
	WG         uint64           `json:"wg"`
	Exposed    uint64           `json:"exposed"`
	FwdHandles [][2]eventq.Time `json:"fwd_handles,omitempty"`
	IGHandles  [][2]eventq.Time `json:"ig_handles,omitempty"`
	WGHandles  [][2]eventq.Time `json:"wg_handles,omitempty"`
}

// goldenCase is one definition x topology x passes result.
type goldenCase struct {
	TotalCycles eventq.Time   `json:"total_cycles"`
	Passes      int           `json:"passes"`
	Layers      []goldenLayer `json:"layers"`
}

// loadGolden reads the pinned results, keyed by subtest name.
func loadGolden(t *testing.T) map[string]goldenCase {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var cases map[string]goldenCase
	if err := json.Unmarshal(data, &cases); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	return cases
}

// spans lists each handle's [CreatedAt, DoneAt].
func spans(hs []*system.Handle) [][2]eventq.Time {
	var out [][2]eventq.Time
	for _, h := range hs {
		out = append(out, [2]eventq.Time{h.CreatedAt, h.DoneAt})
	}
	return out
}

// toGolden renders a result in the pinned form.
func toGolden(res graph.Result) goldenCase {
	c := goldenCase{TotalCycles: res.TotalCycles, Passes: res.Passes}
	for _, l := range res.Layers {
		c.Layers = append(c.Layers, goldenLayer{
			Name: l.Name, Compute: l.ComputeCycles,
			Fwd: l.FwdCommCycles, IG: l.IGCommCycles, WG: l.WGCommCycles,
			Exposed:    l.ExposedCycles,
			FwdHandles: spans(l.FwdHandles),
			IGHandles:  spans(l.IGHandles),
			WGHandles:  spans(l.WGHandles),
		})
	}
	return c
}

// checkGolden asserts got equals the pinned case exactly.
func checkGolden(t *testing.T, want goldenCase, got graph.Result) {
	t.Helper()
	g := toGolden(got)
	if g.TotalCycles != want.TotalCycles || g.Passes != want.Passes {
		t.Errorf("TotalCycles/Passes = %d/%d, want %d/%d", g.TotalCycles, g.Passes, want.TotalCycles, want.Passes)
	}
	if len(g.Layers) != len(want.Layers) {
		t.Fatalf("got %d layer rows, want %d", len(g.Layers), len(want.Layers))
	}
	for i, w := range want.Layers {
		gl, _ := json.Marshal(g.Layers[i])
		wl, _ := json.Marshal(w)
		if string(gl) != string(wl) {
			t.Errorf("layer %d:\n got  %s\n want %s", i, gl, wl)
		}
	}
}
