package workload

import (
	"fmt"

	"astrasim/internal/collectives"
	"astrasim/internal/compute"
	"astrasim/internal/graph"
	"astrasim/internal/system"
)

// Result is the outcome of a training simulation (see graph.Result).
type Result = graph.Result

// LayerStats is one layer's accumulated cost in a Result.
type LayerStats = graph.LayerStats

// NewTrainer compiles def's training loop over passes iterations into an
// execution graph and returns the graph engine that replays it on inst.
func NewTrainer(inst *system.Instance, def Definition, passes int) (*graph.Engine, error) {
	g, err := FromDefinition(def, passes)
	if err != nil {
		return nil, err
	}
	return graph.NewEngine(inst, g, graph.Options{})
}

// FromDefinition compiles a layer-wise Definition (DATA, MODEL, or HYBRID
// parallelism) into the execution graph of its training loop (Fig. 8),
// modelling one NPU's SPMD-symmetric timeline: per-pass forward chains
// blocked by forward collectives, backward chains whose input-gradient
// collective overlaps the weight-gradient compute and blocks the layer
// below, weight-gradient collectives overlapping everything until the
// next pass's forward of the same layer, and a final drain that waits out
// the last weight updates in layer order. Each layer becomes one stats
// row; stalls on its collectives are its exposed communication. The
// result is pinned by graph.TestConverterCycleExact.
func FromDefinition(def Definition, passes int) (*graph.Graph, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	if passes <= 0 {
		return nil, fmt.Errorf("graph: passes must be positive, got %d", passes)
	}
	// Stats rows are keyed by layer name; duplicates would silently
	// merge two layers' accounting (the workload parser rejects them
	// too, but definitions can also be built programmatically).
	seen := make(map[string]int, len(def.Layers))
	for i, l := range def.Layers {
		if j, dup := seen[l.Name]; dup {
			return nil, fmt.Errorf("graph: workload %s has duplicate layer name %q (layers %d and %d)",
				def.Name, l.Name, j, i)
		}
		seen[l.Name] = i
	}

	g := &graph.Graph{Version: graph.FormatVersion, Name: def.Name, Passes: passes}
	L := len(def.Layers)
	active := func(op collectives.Op, bytes int64) bool {
		return op != collectives.None && bytes > 0
	}
	id := func(p int, step string, l int) string {
		return fmt.Sprintf("p%d/%s/%s", p, step, def.Layers[l].Name)
	}
	// fwdTerm is the node the next forward step waits on: the forward
	// collective when the layer has one, its compute otherwise.
	fwdTerm := func(p, l int) string {
		if active(def.Layers[l].FwdComm, def.Layers[l].FwdBytes) {
			return id(p, "fwdcomm", l)
		}
		return id(p, "fwd", l)
	}
	comm := func(p int, step string, l int, op collectives.Op, scope Scope, bytes int64, pass string) graph.Node {
		layer := def.Layers[l]
		placement := ""
		if layer.Placement != compute.PlaceLocal {
			placement = layer.Placement.String()
		}
		return graph.Node{
			ID: id(p, step, l), Kind: graph.KindComm,
			Deps:  []string{id(p, pass, l)},
			Layer: layer.Name, Pass: pass,
			Op: op.String(), Scope: string(scope), Bytes: bytes,
			// The layer index doubles as the collective's priority:
			// under the Priority policy, earlier layers' gradients
			// overtake later ones in the ready queue (§III-E).
			Priority:    l,
			UpdatePerKB: layer.UpdatePerKB,
			Tag:         layer.Name + " " + pass,
			Placement:   placement,
		}
	}

	for p := 0; p < passes; p++ {
		// Forward chain: each layer's compute waits for the previous
		// layer's (blocking) forward exchange and, from the second pass
		// on, for this layer's previous-iteration weight update.
		for l := 0; l < L; l++ {
			layer := def.Layers[l]
			var deps []string
			if l == 0 {
				if p > 0 {
					// The new pass begins where the previous backward
					// chain ended: layer 0's weight-gradient compute,
					// its input-gradient exchange, then its weight
					// update.
					prev := def.Layers[0]
					deps = append(deps, id(p-1, "wg", 0))
					if active(prev.IGComm, prev.IGBytes) {
						deps = append(deps, id(p-1, "igcomm", 0))
					}
					if active(prev.WGComm, prev.WGBytes) {
						deps = append(deps, id(p-1, "wgcomm", 0))
					}
				}
			} else {
				deps = append(deps, fwdTerm(p, l-1))
				if p > 0 && active(layer.WGComm, layer.WGBytes) {
					deps = append(deps, id(p-1, "wgcomm", l))
				}
			}
			g.Nodes = append(g.Nodes, graph.Node{
				ID: id(p, "fwd", l), Kind: graph.KindComp, Cycles: layer.FwdCompute,
				Layer: layer.Name, Pass: "fwd", Deps: deps,
			})
			if active(layer.FwdComm, layer.FwdBytes) {
				g.Nodes = append(g.Nodes, comm(p, "fwdcomm", l, layer.FwdComm, layer.FwdScope, layer.FwdBytes, "fwd"))
			}
		}
		// Backward chain, top layer down: input-gradient compute, its
		// exchange (overlapping the weight-gradient compute), the
		// weight-gradient compute, and its all-reduce (overlapping
		// everything until the next pass needs this layer's weights).
		for l := L - 1; l >= 0; l-- {
			layer := def.Layers[l]
			var igDeps []string
			if l == L-1 {
				igDeps = []string{fwdTerm(p, L-1)}
			} else {
				above := def.Layers[l+1]
				igDeps = append(igDeps, id(p, "wg", l+1))
				if active(above.IGComm, above.IGBytes) {
					igDeps = append(igDeps, id(p, "igcomm", l+1))
				}
			}
			g.Nodes = append(g.Nodes, graph.Node{
				ID: id(p, "ig", l), Kind: graph.KindComp, Cycles: layer.IGCompute,
				Layer: layer.Name, Pass: "ig", Deps: igDeps,
			})
			if active(layer.IGComm, layer.IGBytes) {
				g.Nodes = append(g.Nodes, comm(p, "igcomm", l, layer.IGComm, layer.IGScope, layer.IGBytes, "ig"))
			}
			g.Nodes = append(g.Nodes, graph.Node{
				ID: id(p, "wg", l), Kind: graph.KindComp, Cycles: layer.WGCompute,
				Layer: layer.Name, Pass: "wg", Deps: []string{id(p, "ig", l)},
			})
			if active(layer.WGComm, layer.WGBytes) {
				g.Nodes = append(g.Nodes, comm(p, "wgcomm", l, layer.WGComm, layer.WGScope, layer.WGBytes, "wg"))
			}
		}
	}
	// The final drain: wait out the last pass's outstanding weight
	// updates in layer order (a zero-cost node so it adds no time; its
	// Layer reuses an existing row so it adds no stats entry).
	last := passes - 1
	l0 := def.Layers[0]
	deps := []string{id(last, "wg", 0)}
	if active(l0.IGComm, l0.IGBytes) {
		deps = append(deps, id(last, "igcomm", 0))
	}
	for l := 0; l < L; l++ {
		if active(def.Layers[l].WGComm, def.Layers[l].WGBytes) {
			deps = append(deps, id(last, "wgcomm", l))
		}
	}
	g.Nodes = append(g.Nodes, graph.Node{
		ID: "end", Kind: graph.KindComp, Cycles: 0,
		Layer: l0.Name, Pass: "fwd", Deps: deps,
	})
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: compiled DAG is invalid (converter bug): %w", err)
	}
	return g, nil
}
