package noc

import "astrasim/internal/topology"

// LinkLabel reports link id's plan component and no-transit flag, for the
// external plan tests.
func (n *Network) LinkLabel(id topology.LinkID) (comp uint32, noTransit bool) {
	l := n.links[id]
	return l.comp, l.noTransit
}
