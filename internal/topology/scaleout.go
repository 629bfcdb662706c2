package topology

import "fmt"

// NewScaleOut extends the simulator beyond the scale-up domain — the
// paper's concluding future-work item ("we also plan to extend it to a
// scale-out fabric (modeling the transport layer, e.g., Ethernet)"). It
// replicates one switch-free scale-up pod (a Fabric, e.g. a torus) pods
// times and connects NPUs with the same pod-local position across pods
// through an ethernet-like spine of spines switches, adding a final
// direct "scale-out" dimension to the collective hierarchy.
//
// Node numbering: pod p's NPU i has id p*podNPUs + i; spine switch s has
// id pods*podNPUs + s. Pod p's links are the pod's links in order, with
// ids offset by p times the pod's link count; then each NPU gets one
// ScaleOutLink up/down pair per spine switch.
func NewScaleOut(pod Topology, pods, spines int) (*Fabric, error) {
	if pods <= 1 {
		return nil, fmt.Errorf("topology: scale-out needs >= 2 pods, got %d", pods)
	}
	if spines <= 0 {
		return nil, fmt.Errorf("topology: scale-out needs >= 1 spine switch, got %d", spines)
	}
	pf, ok := pod.(*Fabric)
	if !ok || pf.switches != 0 {
		return nil, fmt.Errorf("topology: scale-out pods must be switch-free fabrics, %s is not", pod.Name())
	}
	if _, err := npuCount(pf.npus, pods); err != nil {
		return nil, err
	}
	n := pf.npus * pods
	f := newFabric(fmt.Sprintf("%d pods of %s over %d-spine scale-out", pods, pf.name, spines), n)
	for _, d := range pf.dims {
		f.addDim(d.info, d.kind, d.class)
	}
	// A switch-free pod's links are its groups' rings and pair links,
	// added dimension by dimension and group by group; adding the same
	// groups per pod reproduces them in order.
	for p := 0; p < pods; p++ {
		off := Node(p * pf.npus)
		for i, d := range pf.dims {
			for _, g := range d.groups {
				members := make([]Node, len(g))
				for k, v := range g {
					members[k] = v + off
				}
				f.addGroup(i, members)
			}
		}
	}
	sd := f.addDim(DimInfo{Dim: DimScaleOut, Size: pods, Channels: spines, Direct: true}, KindSwitch, ScaleOutLink)
	for local := 0; local < pf.npus; local++ {
		f.addGroup(sd, span(local, pods, pf.npus))
	}
	first := f.addSwitches(spines)
	for v := Node(0); int(v) < n; v++ {
		for s := 0; s < spines; s++ {
			f.addPort(sd, v, s, first+Node(s))
		}
	}
	return f, nil
}
