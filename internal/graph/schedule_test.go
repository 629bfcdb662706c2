package graph_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"astrasim/internal/graph"
	"astrasim/internal/topology"
	"astrasim/internal/workload"
)

// pipe4Def reproduces the definition behind the committed
// workloads/pipeline_1f1b.graph.json example: four equal layers split
// into four single-layer stages, 30k fwd / 60k bwd cycles per stage per
// microbatch at M=4.
func pipe4Def() (workload.Definition, workload.PipelineConfig) {
	def := workload.Definition{Name: "pipe4"}
	for i := 0; i < 4; i++ {
		def.Layers = append(def.Layers, workload.Layer{
			Name:       "l" + string(rune('0'+i)),
			FwdCompute: 120000, IGCompute: 120000, WGCompute: 120000,
		})
	}
	cfg := workload.PipelineConfig{
		Boundaries:    []int{1, 2, 3},
		StageNodes:    []topology.Node{0, 1, 2, 3},
		Microbatches:  4,
		BoundaryBytes: []int64{262144, 262144, 262144},
	}
	return def, cfg
}

// TestPipeline1F1BPinnedBytes pins the generator's output byte-for-byte
// to the committed example: the shared schedule emitter refactor (and
// any future change) must not perturb the emitted graph.
func TestPipeline1F1BPinnedBytes(t *testing.T) {
	def, cfg := pipe4Def()
	g, err := workload.Pipeline1F1B(def, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := graph.Write(&got, g); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "workloads", "pipeline_1f1b.graph.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Pipeline1F1B output drifted from committed workloads/pipeline_1f1b.graph.json\ngot %d bytes, want %d bytes", got.Len(), len(want))
	}
}

func TestSchedule1F1BErrors(t *testing.T) {
	for _, tc := range [][3]int{{0, 4, 1}, {2, 0, 1}, {2, 4, 0}, {3, 4, 2}} {
		if _, err := graph.Schedule1F1B(tc[0], tc[1], tc[2]); err == nil {
			t.Errorf("Schedule1F1B(%d,%d,%d): want error", tc[0], tc[1], tc[2])
		}
	}
}

// TestSchedule1F1BInterleaved checks structural invariants of the
// interleaved schedule over a grid: every (chunk, microbatch) appears
// exactly once per direction per stage, and a chunk's backward never
// precedes its forward on the same stage.
func TestSchedule1F1BInterleaved(t *testing.T) {
	grid := []struct{ S, M, v int }{
		{1, 3, 1}, {2, 4, 1}, {4, 4, 1}, {4, 8, 1},
		{2, 2, 2}, {2, 4, 2}, {2, 4, 3}, {4, 4, 2}, {4, 8, 2}, {3, 6, 4},
	}
	for _, tc := range grid {
		sched, err := graph.Schedule1F1B(tc.S, tc.M, tc.v)
		if err != nil {
			t.Fatalf("Schedule1F1B(%d,%d,%d): %v", tc.S, tc.M, tc.v, err)
		}
		if len(sched) != tc.S {
			t.Fatalf("(%d,%d,%d): %d stages", tc.S, tc.M, tc.v, len(sched))
		}
		for s, jobs := range sched {
			if len(jobs) != 2*tc.M*tc.v {
				t.Fatalf("(%d,%d,%d) stage %d: %d jobs, want %d", tc.S, tc.M, tc.v, s, len(jobs), 2*tc.M*tc.v)
			}
			type slot struct {
				c, m int
				fwd  bool
			}
			seen := make(map[slot]int)
			for i, j := range jobs {
				if j.Chunk < 0 || j.Chunk >= tc.v || j.Microbatch < 0 || j.Microbatch >= tc.M {
					t.Fatalf("(%d,%d,%d) stage %d job %d out of range: %+v", tc.S, tc.M, tc.v, s, i, j)
				}
				k := slot{j.Chunk, j.Microbatch, j.Forward}
				if _, dup := seen[k]; dup {
					t.Fatalf("(%d,%d,%d) stage %d: duplicate job %+v", tc.S, tc.M, tc.v, s, j)
				}
				seen[k] = i
			}
			for c := 0; c < tc.v; c++ {
				for m := 0; m < tc.M; m++ {
					if seen[slot{c, m, false}] < seen[slot{c, m, true}] {
						t.Fatalf("(%d,%d,%d) stage %d: backward of chunk %d mb %d before its forward", tc.S, tc.M, tc.v, s, c, m)
					}
				}
			}
		}
	}
}
