package pdes_test

// How Attach lays the link plan out on shard engines. The tests build
// their topologies through the shared spec grammar, so they live in the
// external test package (internal/cli imports pdes through the system
// layer). The plan itself is tested in internal/noc.

import (
	"testing"

	"astrasim/internal/cli"
	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/noc"
	"astrasim/internal/pdes"
)

// TestPlanProperties checks Attach on every corpus topology: one shard
// engine per plan component up to the 32-engine cap, and a network that
// cannot be partitioned twice.
func TestPlanProperties(t *testing.T) {
	for _, spec := range []string{"1x8x1", "2x2x2", "2x4x2", "2x2x2x2", "a2a:2x4", "sw:4x2", "so:2x2x1/2"} {
		t.Run(spec, func(t *testing.T) {
			cfg := config.DefaultSystem()
			topo, err := cli.BuildTopology(spec, cli.DefaultTopologyOptions(), &cfg)
			if err != nil {
				t.Fatal(err)
			}
			eng := eventq.New()
			net, err := noc.New(eng, topo, config.DefaultNetwork())
			if err != nil {
				t.Fatal(err)
			}
			comps, look, err := net.Plan()
			if err != nil {
				t.Fatal(err)
			}
			if comps < 1 || look == 0 {
				t.Fatalf("plan has %d components, lookahead %d", comps, look)
			}
			r, err := pdes.Attach(eng, net, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(r.Shards()), min(comps, 32); got != want {
				t.Fatalf("%d shard engines for %d components, want %d", got, comps, want)
			}
			if _, err := pdes.Attach(eng, net, 2); err == nil {
				t.Fatal("a second Attach partitioned the network again")
			}
		})
	}
}
