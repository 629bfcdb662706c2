package graph_test

import (
	"path/filepath"
	"testing"

	"astrasim/internal/graph"
)

// TestCommittedGraphFiles loads and replays every workloads/*.graph.json
// shipped with the repo: the examples must always parse, validate, and
// run to completion.
func TestCommittedGraphFiles(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("..", "..", "workloads", "*.graph.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no committed graph files found")
	}
	for _, path := range matches {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			g, err := graph.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := graph.Run(newTorusInstance(t), g)
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalCycles == 0 {
				t.Error("replay finished at cycle 0")
			}
		})
	}
}
