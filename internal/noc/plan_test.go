package noc_test

// Link-plan structure tests. They build their topologies through the
// shared spec grammar, so they live in the external test package
// (internal/cli imports noc through the system layer).

import (
	"testing"

	"astrasim/internal/cli"
	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/noc"
	"astrasim/internal/topology"
)

func buildTopology(t *testing.T, spec string) topology.Topology {
	t.Helper()
	cfg := config.DefaultSystem()
	topo, err := cli.BuildTopology(spec, cli.DefaultTopologyOptions(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// lanePaths lists the link path of every lane the system layer can
// schedule on topo: each ring's successor hops and every ordered pair of
// each direct group, per dimension and channel.
func lanePaths(topo topology.Topology) [][]topology.LinkID {
	var paths [][]topology.LinkID
	for _, d := range topo.Dims() {
		for ch := 0; ch < d.Channels && d.Size > 1; ch++ {
			for i := 0; i < topo.NumNPUs(); i++ {
				src := topology.Node(i)
				if !d.Direct {
					if r := topo.RingOf(d.Dim, src, ch); r.Size() > 1 {
						paths = append(paths, topo.PathLinks(d.Dim, ch, src, r.Next(src)))
					}
					continue
				}
				for _, dst := range topo.Group(d.Dim, src) {
					if dst != src {
						paths = append(paths, topo.PathLinks(d.Dim, ch, src, dst))
					}
				}
			}
		}
	}
	return paths
}

// TestLinkPlanProperties checks the link plan New builds on every corpus
// topology family: components are 1-based and dense, numbered in LinkID
// order; every lane stays inside one component; a link is transit
// exactly when some lane crosses it at path position >= 1; and the
// lookahead is the smallest hop delay.
func TestLinkPlanProperties(t *testing.T) {
	for _, spec := range []string{"1x8x1", "2x2x2", "2x4x2", "2x2x2x2", "a2a:2x4", "sw:4x2", "so:2x2x1/2", "hier:sw4,fc2,ring2"} {
		t.Run(spec, func(t *testing.T) {
			topo := buildTopology(t, spec)
			p := config.DefaultNetwork()
			net, err := noc.New(eventq.New(), topo, p)
			if err != nil {
				t.Fatal(err)
			}
			comps, look, err := net.Plan()
			if err != nil {
				t.Fatal(err)
			}
			links := topo.Links()
			seen := uint32(0)
			for _, spec := range links {
				c, _ := net.LinkLabel(spec.ID)
				if c < 1 || c > seen+1 {
					t.Fatalf("link %d: component %d, want 1..%d (dense, in LinkID order)", spec.ID, c, seen+1)
				}
				seen = max(seen, c)
			}
			if int(seen) != comps {
				t.Fatalf("links use %d components, Plan reports %d", seen, comps)
			}
			transit := make([]bool, len(links))
			for _, path := range lanePaths(topo) {
				c0, _ := net.LinkLabel(path[0])
				for _, id := range path[1:] {
					transit[id] = true
					if c, _ := net.LinkLabel(id); c != c0 {
						t.Fatalf("lane %v crosses components %d and %d", path, c0, c)
					}
				}
			}
			minHop := ^eventq.Time(0)
			for _, spec := range links {
				if _, noTransit := net.LinkLabel(spec.ID); noTransit == transit[spec.ID] {
					t.Fatalf("link %d: no-transit %v, but a lane crosses it at position >= 1: %v", spec.ID, noTransit, transit[spec.ID])
				}
				var lat uint64
				switch spec.Class {
				case topology.IntraPackage:
					lat = p.LocalLinkLatency
				case topology.InterPackage:
					lat = p.PackageLinkLatency
				case topology.ScaleOutLink:
					lat = p.ScaleOutLinkLatency
				}
				minHop = min(minHop, eventq.Time(lat+p.RouterLatency))
			}
			if look != minHop || look == 0 {
				t.Fatalf("lookahead %d, want the smallest hop delay %d", look, minHop)
			}
		})
	}
}

// TestLinkPlanUnlabelled: a topology without links, a zero hop delay and
// the unbounded model get no plan. A packet network's links then keep
// component 0 and carry no trains, and Plan says why Partition refuses it.
func TestLinkPlanUnlabelled(t *testing.T) {
	zeroHop := config.DefaultNetwork()
	zeroHop.LocalLinkLatency, zeroHop.RouterLatency = 0, 0
	for _, c := range []struct {
		name, spec string
		p          config.Network
	}{
		{"no links", "1x1x1", config.DefaultNetwork()},
		{"zero hop delay", "2x2x2", zeroHop},
	} {
		t.Run(c.name, func(t *testing.T) {
			topo := buildTopology(t, c.spec)
			net, err := noc.New(eventq.New(), topo, c.p)
			if err != nil {
				t.Fatal(err)
			}
			if comps, _, err := net.Plan(); err == nil || comps != 0 {
				t.Fatalf("Plan = %d components, error %v; want none and an error", comps, err)
			}
			for _, spec := range topo.Links() {
				if comp, noTransit := net.LinkLabel(spec.ID); comp != 0 || noTransit {
					t.Fatalf("link %d labelled (component %d, no-transit %v)", spec.ID, comp, noTransit)
				}
			}
			if err := net.Partition([]*eventq.Engine{eventq.New()}, 1); err == nil {
				t.Fatal("Partition accepted a network without a link plan")
			}
		})
	}
	t.Run("fast", func(t *testing.T) {
		net, err := noc.NewFast(eventq.New(), buildTopology(t, "2x2x2"), config.DefaultNetwork())
		if err != nil {
			t.Fatal(err)
		}
		if comps, _, err := net.Plan(); err == nil || comps != 0 {
			t.Fatalf("Plan = %d components, error %v; want none and an error", comps, err)
		}
	})
}
