package noc

// Regression tests for the path-class packet sizing fix, the rejection of
// unconfigured link classes, and a clean multi-message run.

import (
	"slices"
	"strings"
	"testing"

	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/topology"
)

// torus2x2 builds a 2x2x1 torus whose local links (IntraPackage, 512 B
// packets by default) and horizontal links (InterPackage, 256 B) have
// different packet-size classes.
func torus2x2(t *testing.T, p config.Network) (*eventq.Engine, *topology.Fabric, *Network) {
	t.Helper()
	topo, err := topology.NewTorus(2, 2, 1, topology.TorusConfig{LocalRings: 1, HorizontalRings: 1, VerticalRings: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := eventq.New()
	net, err := New(eng, topo, p)
	if err != nil {
		t.Fatal(err)
	}
	return eng, topo, net
}

// A message whose path starts on a large-packet link but crosses a
// smaller-packet class must be chunked for the tightest hop. Sizing by the
// first link's class (the old behavior) pushed 512-byte packets through a
// 256-byte-class link, overflowing its per-class buffer accounting.
func TestMixedClassPathUsesSmallestPacketSize(t *testing.T) {
	p := exact(config.DefaultNetwork())
	eng, topo, net := torus2x2(t, p)

	lr := topo.RingOf(topology.DimLocal, 0, 0)
	mid := lr.Next(0)
	hr := topo.RingOf(topology.DimHorizontal, mid, 0)
	localLink, horizLink := lr.LinkFrom(0), hr.LinkFrom(mid)

	links := topo.Links()
	if links[localLink].Class == links[horizLink].Class {
		t.Fatalf("test topology lost its mixed-class path: both links are %v", links[localLink].Class)
	}
	if links[localLink].Class != topology.IntraPackage || links[horizLink].Class != topology.InterPackage {
		t.Fatalf("test path is %v then %v, want intra- then inter-package", links[localLink].Class, links[horizLink].Class)
	}
	small := p.PackagePacketSize
	if big := p.LocalPacketSize; big <= small {
		t.Fatalf("default config no longer has local packets (%d) larger than package packets (%d)", big, small)
	}

	var got *Message
	const bytes = 1024
	net.Send(&Message{
		Src: 0, Dst: hr.Next(mid), Bytes: bytes,
		Path:        []topology.LinkID{localLink, horizLink},
		OnDelivered: func(m *Message) { got = m },
	})
	eng.Run()
	if got == nil {
		t.Fatal("mixed-class message not delivered")
	}

	wantPkts := uint64(bytes / int64(small)) // 4 packets of 256 B; was 2 of 512 B
	for _, id := range []topology.LinkID{localLink, horizLink} {
		st := net.LinkStatsFor(id)
		if st.Packets != wantPkts {
			t.Errorf("link %d (%v) carried %d packets, want %d of %d bytes",
				id, links[id].Class, st.Packets, wantPkts, small)
		}
		if st.Bytes != bytes {
			t.Errorf("link %d carried %d bytes, want %d", id, st.Bytes, bytes)
		}
	}
}

// badClassTopo is a topology whose link 1 has a class no network
// parameter configures.
type badClassTopo struct{ topology.Topology }

func (b badClassTopo) Links() []topology.LinkSpec {
	links := slices.Clone(b.Topology.Links())
	links[1].Class = topology.LinkClass(42)
	return links
}

// Both models must refuse a link class without configured bandwidth,
// latency and packet size at construction, naming the link, instead of
// serializing it at rate zero or with some other class's packet size.
func TestUnknownLinkClassRejected(t *testing.T) {
	topo, err := topology.NewTorus(2, 2, 1, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func(*eventq.Engine, topology.Topology, config.Network) (*Network, error){
		"New": New, "NewFast": NewFast,
	} {
		_, err := build(eventq.New(), badClassTopo{topo}, config.DefaultNetwork())
		if err == nil || !strings.Contains(err.Error(), "link 1 ") {
			t.Fatalf("%s accepted a link of class 42 (err %v), want an error naming link 1", name, err)
		}
	}
}

// Several multi-packet messages sharing the ring must all deliver and
// leave the network quiet.
func TestMultiMessageCleanRun(t *testing.T) {
	p := exact(config.DefaultNetwork())
	eng, topo, net := ring4(t, p)
	r := topo.RingOf(topology.DimLocal, 0, 0)
	delivered := 0
	for i := 0; i < 4; i++ {
		src := r.Nodes[i]
		net.Send(&Message{
			Src: src, Dst: r.Next(src), Bytes: 16384,
			Path:        topo.PathLinks(topology.DimLocal, 0, src, r.Next(src)),
			OnDelivered: func(*Message) { delivered++ },
		})
	}
	eng.Run()
	if delivered != 4 {
		t.Fatalf("delivered %d messages, want 4", delivered)
	}
	if !net.Quiet() {
		t.Fatal("network not quiet after the run")
	}
}
