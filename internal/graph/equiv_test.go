package graph_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/graph"
	"astrasim/internal/system"
	"astrasim/internal/topology"
	"astrasim/internal/workload"
)

// newTorusInstance builds a 2x2x2 torus instance (all three scope dims
// available, so scoped HYBRID workloads compile).
func newTorusInstance(t testing.TB) *system.Instance {
	t.Helper()
	tp, err := topology.NewTorus(2, 2, 2, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.DefaultSystem()
	inst, err := system.NewInstance(tp, cfg, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// newA2AInstance builds a 2x2 alltoall instance.
func newA2AInstance(t testing.TB) *system.Instance {
	t.Helper()
	tp, err := topology.NewA2A(2, 2, topology.DefaultA2AConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.DefaultSystem()
	inst, err := system.NewInstance(tp, cfg, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// loadWorkload parses one of the committed workload files.
func loadWorkload(t *testing.T, name string) workload.Definition {
	t.Helper()
	path := filepath.Join("..", "..", "workloads", name)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	def, err := workload.Parse(name, f)
	if err != nil {
		t.Fatal(err)
	}
	return def
}

// syntheticData is a small DATA-parallel definition exercising overlap:
// big weight-gradient collectives under short compute.
func syntheticData() workload.Definition {
	return workload.Definition{
		Name:        "synth-data",
		Parallelism: workload.DataParallel,
		Layers: []workload.Layer{
			{Name: "conv", FwdCompute: 1000, IGCompute: 1100, WGCompute: 1200,
				FwdComm: collectives.None, IGComm: collectives.None,
				WGComm: collectives.AllReduce, WGBytes: 256 << 10, UpdatePerKB: 2},
			{Name: "fc", FwdCompute: 400, IGCompute: 500, WGCompute: 600,
				FwdComm: collectives.None, IGComm: collectives.None,
				WGComm: collectives.AllReduce, WGBytes: 512 << 10, UpdatePerKB: 2},
		},
	}
}

// syntheticModel is a MODEL-parallel definition: blocking forward
// all-gathers and input-gradient exchanges, no weight sync.
func syntheticModel() workload.Definition {
	return workload.Definition{
		Name:        "synth-model",
		Parallelism: workload.ModelParallel,
		Layers: []workload.Layer{
			{Name: "embed", FwdCompute: 800, IGCompute: 900, WGCompute: 300,
				FwdComm: collectives.AllGather, FwdBytes: 64 << 10,
				IGComm: collectives.AllToAll, IGBytes: 32 << 10,
				WGComm: collectives.None},
			{Name: "mlp", FwdCompute: 1500, IGCompute: 1600, WGCompute: 500,
				FwdComm: collectives.AllGather, FwdBytes: 128 << 10,
				IGComm: collectives.AllToAll, IGBytes: 64 << 10,
				WGComm: collectives.None},
			{Name: "head", FwdCompute: 200, IGCompute: 250, WGCompute: 100,
				FwdComm: collectives.AllReduce, FwdBytes: 16 << 10,
				IGComm: collectives.None, WGComm: collectives.None},
		},
	}
}

// TestConverterCycleExact pins layer-wise execution: for every committed
// workload file plus synthetic DATA/MODEL definitions, across two
// topology families and 1..2 passes, the run must reproduce the recorded
// result in testdata/layerwise_golden.json exactly — total cycles,
// per-layer compute, raw comm by pass, exposed stalls, and every
// collective's creation and completion cycle.
func TestConverterCycleExact(t *testing.T) {
	golden := loadGolden(t)
	defs := []workload.Definition{
		loadWorkload(t, "dlrm.txt"),
		loadWorkload(t, "resnet50.txt"),
		loadWorkload(t, "transformer.txt"),
		syntheticData(),
		syntheticModel(),
	}
	topos := map[string]func(testing.TB) *system.Instance{
		"torus2x2x2": newTorusInstance,
		"a2a2x2":     newA2AInstance,
	}
	for _, def := range defs {
		for tpName, newInst := range topos {
			for passes := 1; passes <= 2; passes++ {
				name := fmt.Sprintf("%s/%s/p%d", def.Name, tpName, passes)
				t.Run(name, func(t *testing.T) {
					if scoped(def) && tpName != "torus2x2x2" {
						t.Skip("scoped workload needs the 3D torus")
					}
					if testing.Short() && def.Name == "resnet50.txt" && passes == 2 {
						t.Skip("skipping the slowest case in -short mode")
					}
					want, ok := golden[name]
					if !ok {
						t.Fatalf("%s has no case %s", goldenPath, name)
					}
					g, err := workload.FromDefinition(def, passes)
					if err != nil {
						t.Fatal(err)
					}
					got, err := graph.Run(newInst(t), g)
					if err != nil {
						t.Fatal(err)
					}
					checkGolden(t, want, got)
				})
			}
		}
	}
}

// scoped reports whether any layer restricts a collective's scope.
func scoped(def workload.Definition) bool {
	for _, l := range def.Layers {
		if l.FwdScope != "" || l.IGScope != "" || l.WGScope != "" {
			return true
		}
	}
	return false
}
