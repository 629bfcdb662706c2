package workload

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The shipped workload description files (workloads/*.txt, generated by
// `astrasim -write-workload`) must stay parseable and structurally sound.
func TestShippedWorkloadFilesParse(t *testing.T) {
	cases := []struct {
		file        string
		layers      int
		parallelism Parallelism
	}{
		{"resnet50.txt", 50, DataParallel},
		{"transformer.txt", 8, HybridParallel},
		{"dlrm.txt", 8, HybridParallel},
	}
	for _, c := range cases {
		path := filepath.Join("..", "..", "workloads", c.file)
		fh, err := os.Open(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with `astrasim -write-workload`)", c.file, err)
		}
		def, err := Parse(c.file, fh)
		fh.Close()
		if err != nil {
			t.Fatalf("%s: parse: %v", c.file, err)
		}
		if len(def.Layers) != c.layers {
			t.Errorf("%s: layers = %d, want %d", c.file, len(def.Layers), c.layers)
		}
		if def.Parallelism != c.parallelism {
			t.Errorf("%s: parallelism = %v, want %v", c.file, def.Parallelism, c.parallelism)
		}
	}
}

// FuzzParse exercises the Fig. 8 parser for panics and checks that every
// successfully parsed definition round-trips through Write and compiles,
// for one and two passes, to an execution graph that passes
// graph.Validate — the only way a definition reaches the simulator.
func FuzzParse(f *testing.F) {
	f.Add("DATA\n1\nl\n1 1 1\nNONE NONE ALLREDUCE\n0 0 1024\n1\n")
	f.Add("HYBRID\n2\na\n1 2 3\nALLGATHER ALLREDUCE ALLREDUCE\n10 20 30\n0\nb\n4 5 6\nNONE NONE NONE\n0 0 0\n7\n")
	f.Add("MODEL\n1\n# comment\nx\n0 0 0\nALLTOALL NONE NONE\n5 0 0\n2\n")
	f.Add("")
	f.Add("DATA\n-1\n")
	f.Add("DATA\n1\nl\n1 1\nNONE\n0\n")
	f.Fuzz(func(t *testing.T, input string) {
		def, err := Parse("fuzz", strings.NewReader(input))
		if err != nil {
			return
		}
		var buf strings.Builder
		if err := Write(&buf, def); err != nil {
			t.Fatalf("Write of parsed definition failed: %v", err)
		}
		again, err := Parse("fuzz2", strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("round trip failed: %v\n%s", err, buf.String())
		}
		if len(again.Layers) != len(def.Layers) {
			t.Fatalf("round trip changed layer count: %d -> %d", len(def.Layers), len(again.Layers))
		}
		for passes := 1; passes <= 2; passes++ {
			g, err := FromDefinition(def, passes)
			if err != nil {
				t.Fatalf("parsed definition does not compile for %d passes: %v\n%s", passes, err, input)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("compiled graph for %d passes is invalid: %v\n%s", passes, err, input)
			}
		}
	})
}
