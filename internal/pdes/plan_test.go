package pdes_test

// Partition-plan structure tests. They build their topologies through the
// shared spec grammar, so they live in the external test package
// (internal/cli imports pdes through the system layer).

import (
	"testing"

	"astrasim/internal/cli"
	"astrasim/internal/config"
	"astrasim/internal/pdes"
)

// TestPlanProperties checks the partition plan's structural invariants on
// every corpus topology: full 1-based coverage, no-transit consistency
// with the enumerated lanes, and a positive lookahead.
func TestPlanProperties(t *testing.T) {
	for _, spec := range []string{"1x8x1", "2x2x2", "2x4x2", "2x2x2x2", "a2a:2x4", "sw:4x2", "so:2x2x1/2"} {
		t.Run(spec, func(t *testing.T) {
			cfg := config.DefaultSystem()
			topo, err := cli.BuildTopology(spec, cli.DefaultTopologyOptions(), &cfg)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := pdes.BuildPlan(topo, config.DefaultNetwork())
			if err != nil {
				t.Fatal(err)
			}
			if plan.NumComps < 1 {
				t.Fatal("plan has no components")
			}
			if len(plan.Comp) != len(topo.Links()) {
				t.Fatalf("plan covers %d links, topology has %d", len(plan.Comp), len(topo.Links()))
			}
			seen := make(map[int32]bool)
			for i, c := range plan.Comp {
				if c < 1 || int(c) > plan.NumComps {
					t.Fatalf("link %d: component %d outside [1,%d]", i, c, plan.NumComps)
				}
				seen[c] = true
			}
			if len(seen) != plan.NumComps {
				t.Fatalf("only %d of %d components used", len(seen), plan.NumComps)
			}
			if plan.Lookahead == 0 {
				t.Fatal("zero lookahead")
			}
		})
	}
}

// TestBuildPlanRejectsZeroLatency: a zero hop delay degenerates the
// window to nothing; BuildPlan must refuse instead of livelocking.
func TestBuildPlanRejectsZeroLatency(t *testing.T) {
	cfg := config.DefaultSystem()
	topo, err := cli.BuildTopology("2x2x2", cli.DefaultTopologyOptions(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	netCfg := config.DefaultNetwork()
	netCfg.LocalLinkLatency = 0
	netCfg.RouterLatency = 0
	if _, err := pdes.BuildPlan(topo, netCfg); err == nil {
		t.Fatal("BuildPlan accepted a zero-lookahead configuration")
	}
}
