package system_test

// The lane tables' differential check lives in the external test package
// so it can build its topologies through the shared spec grammar
// (internal/cli imports this package).

import (
	"slices"
	"testing"

	"astrasim/internal/cli"
	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/noc"
	"astrasim/internal/system"
	"astrasim/internal/topology"
)

// hop is one expected message: destination and physical route.
type hop struct {
	dst  topology.Node
	path []topology.LinkID
}

// topoHops derives node n's sends for step s of phase ph on channel ch
// straight from the topology, independently of the lane tables:
// RingOf().Next for rings, a Group scan plus HalvingPartnerIndex for
// halving, every other Group member for direct exchanges, and
// Topo.PathLinks for every route.
func topoHops(topo topology.Topology, ph collectives.Phase, ch int, n topology.Node, s int) []hop {
	route := func(dst topology.Node) hop {
		return hop{dst, topo.PathLinks(ph.Dim, ch, n, dst)}
	}
	switch {
	case ph.Halving:
		group := topo.Group(ph.Dim, n)
		return []hop{route(group[ph.HalvingPartnerIndex(slices.Index(group, n), s)])}
	case ph.Direct:
		var out []hop
		for _, peer := range topo.Group(ph.Dim, n) {
			if peer != n {
				out = append(out, route(peer))
			}
		}
		return out
	}
	return []hop{route(topo.RingOf(ph.Dim, n, ch).Next(n))}
}

// TestLaneRoutesMatchTopology is the lane tables' differential check: for
// every topology family, every dimension, channel, phase kind, node and
// step, the messages sendStep builds from the lane carry exactly the
// destination and route the topology itself returns.
func TestLaneRoutesMatchTopology(t *testing.T) {
	specs := []string{
		"1x8x1", "2x2x2", "2x4x2", "4x4x4", "2x2x2x2",
		"a2a:2x4", "sw:4x2", "so:2x2x1/2", "so:2x2x2/4",
		"hier:sw4,fc3,ring4",     // switch + fully-connected + ring
		"hier:ring2,sw8",         // halving on a pow2 switch dimension
		"hier:fc4,ring2x1,sw2",   // explicit lane count, halving switch
		"hier:ring2,ring4,ring2", // all-ring composition
		"hier:sw4x2,fc4x3,ring3", // multi-lane switch and fc dimensions
	}
	type named struct {
		name string
		topo topology.Topology
	}
	var topos []named
	for _, spec := range specs {
		cfg := config.DefaultSystem()
		topo, err := cli.BuildTopology(spec, cli.DefaultTopologyOptions(), &cfg)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		topos = append(topos, named{spec, topo})
	}
	// A logical torus mapped onto a physical ring: multi-hop ring routes.
	phys, err := topology.NewTorus(1, 16, 1, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	logical, err := topology.NewTorus(2, 2, 4, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := topology.NewMapped(logical, phys, topology.IdentityMapping(16))
	if err != nil {
		t.Fatal(err)
	}
	topos = append(topos, named{"mapped 2x2x4 on 1x16x1", mapped})

	ops := []collectives.Op{collectives.ReduceScatter, collectives.AllGather,
		collectives.AllReduce, collectives.AllToAll}
	var ring, direct, halving int
	for _, tc := range topos {
		// A real fast network whose OnSend records every message sent
		// through it; the engine never runs, so none is delivered.
		eng := eventq.New()
		net, err := noc.NewFast(eng, tc.topo, config.DefaultNetwork())
		if err != nil {
			t.Fatal(err)
		}
		var sent []*noc.Message
		net.OnSend = func(m *noc.Message) { sent = append(sent, m) }
		s, err := system.New(eng, tc.topo, net, config.DefaultSystem())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range tc.topo.Dims() {
			if d.Size <= 1 {
				continue
			}
			for _, op := range ops {
				phases, err := collectives.CompileScoped(op, tc.topo, config.Baseline, []topology.Dim{d.Dim})
				if err != nil {
					t.Fatal(err)
				}
				for _, ph := range phases {
					switch {
					case ph.Halving:
						halving++
					case ph.Direct:
						direct++
					default:
						ring++
					}
					for ch := 0; ch < d.Channels; ch++ {
						for n := 0; n < tc.topo.NumNPUs(); n++ {
							node := topology.Node(n)
							for step := 0; step < ph.NumSteps(); step++ {
								sent = sent[:0]
								system.SendStepForTest(s, d.Dim, ph, ch, node, step)
								want := topoHops(tc.topo, ph, ch, node, step)
								if len(sent) != len(want) {
									t.Fatalf("%s %v ch%d node %d step %d: %d messages, want %d",
										tc.name, ph, ch, n, step, len(sent), len(want))
								}
								for i, m := range sent {
									if m.Src != node || m.Dst != want[i].dst || !slices.Equal(m.Path, want[i].path) {
										t.Fatalf("%s %v ch%d node %d step %d message %d: %d->%d via %v, want %d->%d via %v",
											tc.name, ph, ch, n, step, i, m.Src, m.Dst, m.Path, node, want[i].dst, want[i].path)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if ring == 0 || direct == 0 || halving == 0 {
		t.Fatalf("corpus left a phase kind unchecked: %d ring, %d direct, %d halving phases", ring, direct, halving)
	}
}
