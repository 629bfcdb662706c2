package workload

import (
	"bytes"
	"testing"

	"astrasim/internal/compute"
	"astrasim/internal/config"
	"astrasim/internal/system"
	"astrasim/internal/topology"
)

// newRemoteMemInstance builds the 2x2x1 training fixture with a remote
// memory pool attached (bw bytes/cycle, lat cycles).
func newRemoteMemInstance(t *testing.T, bw float64, lat uint64) *system.Instance {
	t.Helper()
	tp, err := topology.NewTorus(2, 2, 1, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.DefaultSystem()
	cfg.RemoteMemBandwidth = bw
	cfg.RemoteMemLatency = lat
	inst, err := system.NewInstance(tp, cfg, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// Training time must order with how much of the model lives behind the
// pooled-memory link: local <= interleaved <= remote, with remote
// strictly slower on a slow pool. And with no pool configured, placement
// annotations are inert — byte-identical to an all-local run.
func TestTrainerPlacementMonotone(t *testing.T) {
	run := func(p compute.Placement, bw float64, lat uint64) uint64 {
		def := sampleDef()
		def.Layers = append([]Layer(nil), def.Layers...)
		for i := range def.Layers {
			def.Layers[i].Placement = p
		}
		tr, err := NewTrainer(newRemoteMemInstance(t, bw, lat), def, 2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		return uint64(res.TotalCycles)
	}
	// A deliberately slow pool so the stall dominates rounding noise.
	const bw, lat = 2.0, 5000
	local := run(compute.PlaceLocal, bw, lat)
	inter := run(compute.PlaceInterleaved, bw, lat)
	remote := run(compute.PlaceRemote, bw, lat)
	if !(local <= inter && inter <= remote) {
		t.Fatalf("placement order broken: local %d, interleaved %d, remote %d", local, inter, remote)
	}
	if remote <= local {
		t.Fatalf("remote placement on a slow pool did not slow training: %d vs %d", remote, local)
	}

	// Disabled pool: remote placement must cost nothing.
	offLocal := run(compute.PlaceLocal, 0, 0)
	offRemote := run(compute.PlaceRemote, 0, 0)
	if offLocal != offRemote {
		t.Fatalf("placement changed a pool-less run: local %d, remote %d", offLocal, offRemote)
	}
}

// The placement token on the update-time line must survive a parse/write
// round trip and reject junk naming the layer.
func TestPlacementFileRoundTrip(t *testing.T) {
	def := sampleDef()
	def.Layers = append([]Layer(nil), def.Layers...)
	def.Layers[0].Placement = compute.PlaceRemote
	def.Layers[1].Placement = compute.PlaceInterleaved
	var buf bytes.Buffer
	if err := Write(&buf, def); err != nil {
		t.Fatal(err)
	}
	back, err := Parse("roundtrip", &buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range def.Layers {
		if back.Layers[i].Placement != def.Layers[i].Placement {
			t.Errorf("layer %d placement %v, want %v", i, back.Layers[i].Placement, def.Layers[i].Placement)
		}
	}
}
