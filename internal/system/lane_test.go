package system

import (
	"slices"
	"testing"

	"astrasim/internal/cli"
	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/noc"
	"astrasim/internal/topology"
)

// recordNet is a Network that records the messages sent through it and
// delivers none; sendStep touches nothing else.
type recordNet struct {
	Network
	sent []*noc.Message
}

func (r *recordNet) Send(m *noc.Message) { r.sent = append(r.sent, m) }

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
	phys := torus(t, 1, 16, 1, topology.DefaultTorusConfig())
	mapped, err := topology.NewMapped(torus(t, 2, 2, 4, topology.DefaultTorusConfig()), phys, topology.IdentityMapping(16))
	if err != nil {
		t.Fatal(err)
	}
	topos = append(topos, named{"mapped 2x2x4 on 1x16x1", mapped})

	ops := []collectives.Op{collectives.ReduceScatter, collectives.AllGather,
		collectives.AllReduce, collectives.AllToAll}
	var ring, direct, halving int
	for _, tc := range topos {
		net := &recordNet{}
		s, err := New(eventq.New(), tc.topo, net, config.DefaultSystem())
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
						c := &chunk{sys: s, coll: &Handle{phases: []collectives.Phase{ph}}, bytes: 1 << 20}
						c.lane = s.laneFor(s.dimIndex(d.Dim), ch, ph.Direct || ph.Halving)
						for n := 0; n < tc.topo.NumNPUs(); n++ {
							node := topology.Node(n)
							for step := 0; step < ph.NumSteps(); step++ {
								net.sent = net.sent[:0]
								c.sendStep(node, 0, step)
								want := topoHops(tc.topo, ph, ch, node, step)
								if len(net.sent) != len(want) {
									t.Fatalf("%s %v ch%d node %d step %d: %d messages, want %d",
										tc.name, ph, ch, n, step, len(net.sent), len(want))
								}
								for i, m := range net.sent {
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

// TestSendPathAllocsPerChunk pins the steady-state send path at zero
// allocations per message. A fast-backend 4x4x4 all-reduce at 64 chunks
// sends 4x the messages of the same run at 16 chunks; the extra
// allocations must be explained by the extra chunks alone — each chunk's
// own objects, plus up to one in-flight message per node that the
// message free list may have to grow for while the chunk is active.
func TestSendPathAllocsPerChunk(t *testing.T) {
	for _, backend := range []config.Backend{config.FastBackend, config.PacketBackend} {
		t.Run(backend.String(), func(t *testing.T) { testSendPathAllocsPerChunk(t, backend) })
	}
}

func testSendPathAllocsPerChunk(t *testing.T, backend config.Backend) {
	topo := torus(t, 4, 4, 4, topology.DefaultTorusConfig())
	run := func(splits int) (allocs float64, chunks int, msgs int64) {
		cfg := sysCfgFor(topo)
		cfg.Backend = backend
		cfg.Algorithm = config.Enhanced
		cfg.PreferredSetSplits = splits
		allocs = testing.AllocsPerRun(3, func() {
			inst, err := NewInstance(topo, cfg, config.DefaultNetwork())
			if err != nil {
				t.Fatal(err)
			}
			h, err := inst.Sys.IssueCollective(collectives.AllReduce, 4<<20, "", nil)
			if err != nil {
				t.Fatal(err)
			}
			inst.Eng.Run()
			if !h.Done() {
				t.Fatal("all-reduce did not complete")
			}
			chunks, msgs = h.NumChunks(), h.ScheduledMessages()
		})
		return allocs, chunks, msgs
	}
	a16, c16, m16 := run(16)
	a64, c64, m64 := run(64)
	if c64 != 4*c16 || m64 != 4*m16 {
		t.Fatalf("64-way split ran %d chunks / %d messages, want 4x the 16-way %d / %d", c64, m64, c16, m16)
	}
	perChunk := float64(2 + topo.NumNPUs()) // chunk, node states, in-flight messages
	extra := a64 - a16
	if budget := perChunk * float64(c64-c16); extra > budget {
		t.Fatalf("%d more messages cost %.0f more allocations (%.0f -> %.0f), over the %.0f per-chunk budget for %d more chunks",
			m64-m16, extra, a16, a64, budget, c64-c16)
	}
	t.Logf("%d -> %d chunks, %d -> %d messages: %.0f -> %.0f allocations", c16, c64, m16, m64, a16, a64)
}
