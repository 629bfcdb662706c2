// Package graph is the simulator's workload executor: it replays a
// dependency DAG of compute, collective, point-to-point, and memory nodes
// over the simulated system layer — what ASTRA-sim2.0 calls "graph-based
// execution traces" (Chakra-style). Every schedule is such a DAG: the
// layer-wise training loop of internal/workload, 1F1B pipelines, compiled
// model plans, MoE all-to-all patterns, and trace files.
//
// The package has three parts: a versioned JSON trace format
// (Parse/Load/Validate), a dependency-driven scheduler (Engine) that
// folds per-node costs into per-layer Result rows, and schedule helpers
// (Schedule1F1B, Microbench). The frontends that compile other inputs
// into graphs live with those inputs: workload.FromDefinition and
// workload.Pipeline1F1B, and internal/modelgen. See DESIGN.md §10 and
// workloads/README.md for the format.
package graph

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"astrasim/internal/collectives"
	"astrasim/internal/compute"
	"astrasim/internal/topology"
)

// FormatVersion is the trace-format version this package reads and
// writes. Parse rejects any other value.
const FormatVersion = 1

// Kind is a node's operation class.
type Kind string

// Node kinds.
const (
	// KindComp is local computation: an explicit cycle count or a GEMM
	// shape resolved through the analytical accelerator model.
	KindComp Kind = "COMP"
	// KindComm is a collective (reduce-scatter, all-gather, all-reduce,
	// all-to-all) issued through the system layer.
	KindComm Kind = "COMM"
	// KindSend transmits bytes point-to-point; it completes at issue
	// time (asynchronous send) and unblocks its paired RECV on delivery.
	KindSend Kind = "SEND"
	// KindRecv blocks until its paired SEND's payload is delivered.
	KindRecv Kind = "RECV"
	// KindMem is a DRAM-bandwidth stall: streaming bytes at the compute
	// model's HBM bandwidth.
	KindMem Kind = "MEM"
)

// GEMMSpec is a COMP node's matrix-multiply shape, resolved to cycles
// through compute.Model.GEMMCycles when the engine is built.
type GEMMSpec struct {
	M int `json:"m"`
	K int `json:"k"`
	N int `json:"n"`
}

// Node is one trace node. Deps list node IDs that must complete before
// this node starts; dependency order is semantically meaningful for
// stall accounting (stalls are attributed by walking deps in declared
// order, see Engine).
type Node struct {
	ID   string   `json:"id"`
	Kind Kind     `json:"kind"`
	Deps []string `json:"deps,omitempty"`
	// Layer names the stats group this node accrues to in the result
	// (default: the node's own ID).
	Layer string `json:"layer,omitempty"`
	// Pass selects the accounting bucket for communication time:
	// "fwd", "ig", or "wg" (default "fwd").
	Pass string `json:"pass,omitempty"`
	// Replica is the logical execution lane (e.g. a pipeline stage's
	// NPU). COMP and MEM nodes on the same replica serialize.
	Replica int `json:"replica,omitempty"`

	// COMP: explicit cycles, or a GEMM shape (exclusive).
	Cycles uint64    `json:"cycles,omitempty"`
	GEMM   *GEMMSpec `json:"gemm,omitempty"`

	// COMM: collective op, optional dimension scope ("local+horizontal"),
	// priority (lower = more urgent under the Priority policy), and the
	// local update time applied after completion (cycles per KB, the
	// Fig. 8 "Local Update Time"). Bytes is shared with SEND and MEM.
	Op          string `json:"op,omitempty"`
	Scope       string `json:"scope,omitempty"`
	Bytes       int64  `json:"bytes,omitempty"`
	Priority    int    `json:"priority,omitempty"`
	UpdatePerKB uint64 `json:"update_per_kb,omitempty"`
	Tag         string `json:"tag,omitempty"`

	// COMM/MEM: where the node's tensor lives relative to the
	// disaggregated remote-memory tier ("local", "remote",
	// "interleaved"; empty = local). Remote placements add the
	// configured pool stall to the node's memory or update time.
	Placement string `json:"placement,omitempty"`

	// SEND/RECV: endpoints and the paired node's ID (mutual).
	Src  int    `json:"src,omitempty"`
	Dst  int    `json:"dst,omitempty"`
	Peer string `json:"peer,omitempty"`
}

// Graph is a parsed execution trace.
type Graph struct {
	Version int    `json:"version"`
	Name    string `json:"name,omitempty"`
	// Passes is purely descriptive (reported in Result); the
	// node list already encodes every iteration. Defaults to 1.
	Passes int    `json:"passes,omitempty"`
	Nodes  []Node `json:"nodes"`
}

// Parse reads and validates a JSON execution trace. Unknown fields are
// rejected so typos fail loudly.
func Parse(name string, r io.Reader) (*Graph, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	g := &Graph{}
	if err := dec.Decode(g); err != nil {
		return nil, fmt.Errorf("graph %s: %w", name, err)
	}
	if g.Name == "" {
		g.Name = name
	}
	if g.Passes == 0 {
		g.Passes = 1
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Load reads and validates a trace file.
func Load(path string) (*Graph, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return Parse(path, fh)
}

// Write emits the graph as indented JSON (the -graph-dump format).
func Write(w io.Writer, g *Graph) error {
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	_, err = w.Write(out)
	return err
}

// commPass reports whether s is a valid pass bucket.
func commPass(s string) bool {
	switch s {
	case "", "fwd", "ig", "wg":
		return true
	}
	return false
}

// Validate checks structural well-formedness: the format version, node
// uniqueness, per-kind field constraints, SEND/RECV peer pairing, dep
// resolution, and acyclicity (naming a cycle when one exists). The
// topology-dependent checks happen when an Engine is built: replica and
// SEND endpoint ranges (CheckEndpoints) and scope dimensions.
func (g *Graph) Validate() error {
	fail := func(i int, format string, args ...any) error {
		id := ""
		if i >= 0 && i < len(g.Nodes) && g.Nodes[i].ID != "" {
			id = " (" + g.Nodes[i].ID + ")"
		}
		return fmt.Errorf("graph %s: node %d%s: %s", g.Name, i, id, fmt.Sprintf(format, args...))
	}
	if g.Version != FormatVersion {
		return fmt.Errorf("graph %s: unsupported format version %d (want %d)", g.Name, g.Version, FormatVersion)
	}
	if g.Passes <= 0 {
		return fmt.Errorf("graph %s: passes must be positive, got %d", g.Name, g.Passes)
	}
	if len(g.Nodes) == 0 {
		return fmt.Errorf("graph %s: no nodes", g.Name)
	}
	idx := make(map[string]int, len(g.Nodes))
	for i, n := range g.Nodes {
		if n.ID == "" {
			return fail(i, "empty id")
		}
		if prev, dup := idx[n.ID]; dup {
			return fail(i, "duplicate id (also node %d)", prev)
		}
		idx[n.ID] = i
	}
	for i, n := range g.Nodes {
		if n.Replica < 0 {
			return fail(i, "negative replica %d", n.Replica)
		}
		if !commPass(n.Pass) {
			return fail(i, "invalid pass %q (want fwd, ig, or wg)", n.Pass)
		}
		seen := make(map[string]bool, len(n.Deps))
		for _, d := range n.Deps {
			j, ok := idx[d]
			if !ok {
				return fail(i, "dep %q does not exist", d)
			}
			if j == i {
				return fail(i, "depends on itself")
			}
			if seen[d] {
				return fail(i, "duplicate dep %q", d)
			}
			seen[d] = true
		}
		switch n.Kind {
		case KindComp:
			if n.GEMM != nil {
				if n.Cycles != 0 {
					return fail(i, "COMP with both cycles and gemm")
				}
				if n.GEMM.M <= 0 || n.GEMM.K <= 0 || n.GEMM.N <= 0 {
					return fail(i, "gemm dimensions must be positive, got %dx%dx%d", n.GEMM.M, n.GEMM.K, n.GEMM.N)
				}
			}
			if n.Op != "" || n.Bytes != 0 || n.Peer != "" || n.Placement != "" {
				return fail(i, "COMP with communication fields set")
			}
		case KindComm:
			op, err := collectives.ParseOp(n.Op)
			if err != nil {
				return fail(i, "%v", err)
			}
			if op == collectives.None {
				return fail(i, "COMM with op NONE (omit the node instead)")
			}
			if n.Bytes <= 0 {
				return fail(i, "COMM needs positive bytes, got %d", n.Bytes)
			}
			if _, err := topology.ParseScope(n.Scope); err != nil {
				return fail(i, "scope %q: %v", n.Scope, err)
			}
			if n.Peer != "" || n.GEMM != nil || n.Cycles != 0 {
				return fail(i, "COMM with non-collective fields set")
			}
			if _, err := compute.ParsePlacement(n.Placement); err != nil {
				return fail(i, "%v", err)
			}
		case KindSend, KindRecv:
			j, ok := idx[n.Peer]
			if !ok {
				return fail(i, "%s peer %q does not exist", n.Kind, n.Peer)
			}
			p := g.Nodes[j]
			wantPeer := KindRecv
			if n.Kind == KindRecv {
				wantPeer = KindSend
			}
			if p.Kind != wantPeer || p.Peer != n.ID {
				return fail(i, "%s peer %q must be a %s whose peer is %q", n.Kind, n.Peer, wantPeer, n.ID)
			}
			if n.Kind == KindSend {
				if n.Bytes <= 0 {
					return fail(i, "SEND needs positive bytes, got %d", n.Bytes)
				}
				if n.Src < 0 || n.Dst < 0 {
					return fail(i, "SEND endpoints must be non-negative, got %d->%d", n.Src, n.Dst)
				}
			} else if n.Bytes != 0 || n.Src != 0 || n.Dst != 0 {
				return fail(i, "RECV carries no payload fields (they live on the SEND)")
			}
			if n.Op != "" || n.GEMM != nil || n.Cycles != 0 || n.Placement != "" {
				return fail(i, "%s with non-p2p fields set", n.Kind)
			}
		case KindMem:
			if n.Bytes <= 0 {
				return fail(i, "MEM needs positive bytes, got %d", n.Bytes)
			}
			if n.Op != "" || n.Peer != "" || n.GEMM != nil || n.Cycles != 0 {
				return fail(i, "MEM with non-memory fields set")
			}
			if _, err := compute.ParsePlacement(n.Placement); err != nil {
				return fail(i, "%v", err)
			}
		default:
			return fail(i, "unknown kind %q", n.Kind)
		}
	}
	return g.checkAcyclic(idx)
}

// CheckEndpoints checks g's NPU ranges against a fabric of npus NPUs:
// every node's replica and every SEND's endpoints must name one of its
// NPUs. g must have passed Validate, which rejects negative values and a
// RECV that carries endpoints. NewEngine calls it, and so does a caller
// that wants to reject a graph before it builds a run (the daemon).
func (g *Graph) CheckEndpoints(npus int) error {
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Replica >= npus {
			return fmt.Errorf("graph %s: node %s: replica %d out of range (%d NPUs)", g.Name, n.ID, n.Replica, npus)
		}
		if n.Kind == KindSend && (n.Src >= npus || n.Dst >= npus) {
			return fmt.Errorf("graph %s: node %s: endpoints %d->%d out of range (%d NPUs)", g.Name, n.ID, n.Src, n.Dst, npus)
		}
	}
	return nil
}

// edges returns i's predecessor indices: declared deps plus, for a RECV,
// the implicit edge from its paired SEND (data cannot arrive before it
// is sent, so a schedule that orders the SEND after the RECV's
// successors can deadlock — treat the pair as a dependency).
func (g *Graph) edges(idx map[string]int, i int) []int {
	n := g.Nodes[i]
	preds := make([]int, 0, len(n.Deps)+1)
	for _, d := range n.Deps {
		preds = append(preds, idx[d])
	}
	if n.Kind == KindRecv {
		preds = append(preds, idx[n.Peer])
	}
	return preds
}

// checkAcyclic topologically sorts the dependency relation (including
// implicit SEND->RECV edges) and, on failure, names one cycle.
func (g *Graph) checkAcyclic(idx map[string]int) error {
	indeg := make([]int, len(g.Nodes))
	succs := make([][]int, len(g.Nodes))
	for i := range g.Nodes {
		for _, p := range g.edges(idx, i) {
			indeg[i]++
			succs[p] = append(succs[p], i)
		}
	}
	queue := make([]int, 0, len(g.Nodes))
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	removed := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		removed++
		for _, s := range succs[i] {
			if indeg[s]--; indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if removed == len(g.Nodes) {
		return nil
	}
	return fmt.Errorf("graph %s: dependency cycle: %s", g.Name, g.nameCycle(idx, indeg))
}

// nameCycle walks predecessors inside the unresolvable subgraph (nodes
// with leftover indegree) until a node repeats, then renders the loop as
// "a -> b -> c -> a".
func (g *Graph) nameCycle(idx map[string]int, indeg []int) string {
	start := -1
	for i, d := range indeg {
		if d > 0 {
			start = i
			break
		}
	}
	if start < 0 {
		return "unlocatable"
	}
	// Every node in the residual subgraph has a predecessor in it, so
	// walking predecessors must eventually revisit a node.
	visitedAt := make(map[int]int)
	var path []int
	cur := start
	for {
		if at, seen := visitedAt[cur]; seen {
			// path[at:] lists each node followed by the dependency it
			// waits on; close the loop by repeating the first node.
			loop := path[at:]
			parts := make([]string, 0, len(loop)+1)
			for _, i := range loop {
				parts = append(parts, g.Nodes[i].ID)
			}
			parts = append(parts, g.Nodes[loop[0]].ID)
			return strings.Join(parts, " -> ")
		}
		visitedAt[cur] = len(path)
		path = append(path, cur)
		next := -1
		for _, p := range g.edges(idx, cur) {
			if indeg[p] > 0 {
				next = p
				break
			}
		}
		if next < 0 {
			return g.Nodes[cur].ID // should not happen on a residual subgraph
		}
		cur = next
	}
}
