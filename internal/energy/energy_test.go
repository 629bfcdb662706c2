package energy

import (
	"math"
	"testing"

	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/system"
	"astrasim/internal/topology"
)

func TestComputeEnergy(t *testing.T) {
	p := Default()
	// 1e12 MACs at 0.5 pJ = 0.5 J.
	if got := ComputeEnergy(1e12, p); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("ComputeEnergy = %v, want 0.5 J", got)
	}
}

func TestValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Default()
	bad.InterPackagePJPerBit = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero link energy")
	}
}

// runColl runs one collective and returns its comm-energy breakdown.
func runColl(t *testing.T, alg config.Algorithm, op collectives.Op) Breakdown {
	t.Helper()
	tp, err := topology.NewTorus(4, 4, 4, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.DefaultSystem()
	cfg.Algorithm = alg
	inst, err := system.NewInstance(tp, cfg, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	done := false
	if _, err := inst.Sys.IssueCollective(op, 8<<20, "", func(*system.Handle) { done = true }); err != nil {
		t.Fatal(err)
	}
	inst.Eng.Run()
	if !done {
		t.Fatal("collective did not complete")
	}
	intra, inter, scaleOut := inst.Net.TotalBytesByClass()
	return CommEnergy(intra, inter, scaleOut, Default())
}

func TestCommEnergyPositive(t *testing.T) {
	b := runColl(t, config.Baseline, collectives.AllReduce)
	if b.IntraPackage <= 0 || b.InterPackage <= 0 || b.Router <= 0 {
		t.Errorf("breakdown has zero components: %+v", b)
	}
	if math.Abs(b.Communication()-(b.IntraPackage+b.InterPackage+b.Router)) > 1e-15 {
		t.Error("Communication() does not sum components")
	}
}

// The enhanced algorithm's whole point is moving less data over the
// expensive inter-package links: its inter-package energy must be ~4x
// lower on a 4x4x4 system.
func TestEnhancedSavesInterPackageEnergy(t *testing.T) {
	base := runColl(t, config.Baseline, collectives.AllReduce)
	enh := runColl(t, config.Enhanced, collectives.AllReduce)
	ratio := base.InterPackage / enh.InterPackage
	if ratio < 3.9 || ratio > 4.1 {
		t.Errorf("inter-package energy ratio = %.2f, want ~4 (traffic reduction)", ratio)
	}
	if enh.Communication() >= base.Communication() {
		t.Errorf("enhanced total comm energy %.3e should beat baseline %.3e",
			enh.Communication(), base.Communication())
	}
}

// Analytic cross-check: baseline 4x4x4 all-reduce of S bytes moves
// 3*2*(3/4)*S per node over known link classes.
func TestCommEnergyMatchesTrafficArithmetic(t *testing.T) {
	b := runColl(t, config.Baseline, collectives.AllReduce)
	const S = 8 << 20
	perNode := 2.0 * 3 / 4 * S // per dimension
	nodes := 64.0
	// One local dimension (intra), two inter dimensions.
	wantIntraBits := perNode * nodes * 8
	wantInterBits := 2 * perNode * nodes * 8
	p := Default()
	wantIntra := wantIntraBits * p.IntraPackagePJPerBit * 1e-12
	wantInter := wantInterBits * p.InterPackagePJPerBit * 1e-12
	if math.Abs(b.IntraPackage-wantIntra)/wantIntra > 0.02 {
		t.Errorf("intra energy %.4e, want ~%.4e", b.IntraPackage, wantIntra)
	}
	if math.Abs(b.InterPackage-wantInter)/wantInter > 0.02 {
		t.Errorf("inter energy %.4e, want ~%.4e", b.InterPackage, wantInter)
	}
}
