// Package workload implements the Workload layer of ASTRA-SIM (paper
// §IV-A): it parses the DNN description input file (Fig. 8) and compiles
// its training-loop algorithm into an execution graph (FromDefinition)
// that internal/graph's engine replays over the simulated system layer,
// accounting compute time, raw communication time, and *exposed*
// communication time (stalls where training cannot proceed until a
// collective finishes). It also generates pipeline-parallel schedules.
package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"astrasim/internal/collectives"
	"astrasim/internal/compute"
	"astrasim/internal/topology"
)

// Parallelism is the partitioning strategy (paper §III-A and Table I).
type Parallelism int

const (
	// DataParallel replicates the model; only weight gradients are
	// communicated (all-reduce during back-propagation).
	DataParallel Parallelism = iota
	// ModelParallel splits the model; output activations (forward) and
	// input gradients (back-propagation) are communicated.
	ModelParallel
	// HybridParallel mixes both; all three exchanges occur partially.
	HybridParallel
)

func (p Parallelism) String() string {
	switch p {
	case DataParallel:
		return "DATA"
	case ModelParallel:
		return "MODEL"
	case HybridParallel:
		return "HYBRID"
	}
	return fmt.Sprintf("Parallelism(%d)", int(p))
}

// ParseParallelism converts a workload-file token.
func ParseParallelism(s string) (Parallelism, error) {
	switch strings.ToUpper(s) {
	case "DATA":
		return DataParallel, nil
	case "MODEL":
		return ModelParallel, nil
	case "HYBRID":
		return HybridParallel, nil
	}
	return 0, fmt.Errorf("workload: unknown parallelism %q", s)
}

// CommPattern reports which training passes communicate under a
// parallelism strategy (Table I): activations during the forward pass,
// weight gradients, and input gradients during back-propagation.
func (p Parallelism) CommPattern() (activations, weightGrads, inputGrads bool) {
	switch p {
	case DataParallel:
		return false, true, false
	case ModelParallel:
		return true, false, true
	case HybridParallel:
		return true, true, true
	}
	return false, false, false
}

// Scope restricts a collective to a '+'-separated list of topology
// dimensions ("vertical", "local+horizontal"); the empty scope means all
// dimensions (a global collective). Hybrid parallelism uses scopes to run
// activation exchanges within the model-parallel dimension only and
// weight-gradient all-reduces within the data-parallel dimensions
// (§III-A). topology.ParseScope resolves it to dimensions.
type Scope string

// Layer is one DNN layer's workload description: per-pass compute delays
// (from the compute model), per-pass collective type and size, and the
// local update time (Fig. 8).
type Layer struct {
	Name string
	// Compute delays in cycles for the forward pass, input-gradient
	// pass, and weight-gradient pass.
	FwdCompute, IGCompute, WGCompute uint64
	// Collective types per pass (None disables).
	FwdComm, IGComm, WGComm collectives.Op
	// Per-pass collective scopes (empty = global). Serialized in the
	// workload file as an "@scope" suffix on the collective type.
	FwdScope, IGScope, WGScope Scope
	// Collective sizes in bytes per pass.
	FwdBytes, IGBytes, WGBytes int64
	// UpdatePerKB is the local update time: cycles per KB of
	// communicated data to process/reduce it after the collective
	// finishes (Fig. 8's "Local Update Time").
	UpdatePerKB uint64
	// Placement says where the layer's tensors live relative to the
	// disaggregated remote-memory tier; local (the zero value) for all
	// layers of an existing workload file. Serialized as an optional
	// second token on the update-time line.
	Placement compute.Placement
}

// Definition is a parsed DNN workload (Table III parameter #1's file).
type Definition struct {
	Name        string
	Parallelism Parallelism
	Layers      []Layer
}

// Validate reports the first inconsistency between the declared
// parallelism and the per-layer communication pattern.
func (d Definition) Validate() error {
	if len(d.Layers) == 0 {
		return fmt.Errorf("workload %s: no layers", d.Name)
	}
	for i, l := range d.Layers {
		for _, c := range []struct {
			op    collectives.Op
			bytes int64
			pass  string
		}{
			{l.FwdComm, l.FwdBytes, "forward"},
			{l.IGComm, l.IGBytes, "input-grad"},
			{l.WGComm, l.WGBytes, "weight-grad"},
		} {
			if c.op != collectives.None && c.bytes <= 0 {
				return fmt.Errorf("workload %s layer %d (%s): %s comm %v with %d bytes",
					d.Name, i, l.Name, c.pass, c.op, c.bytes)
			}
		}
	}
	return nil
}

// ScaleCompute returns a copy with all compute delays divided by factor
// (the Fig. 18 compute-power knob).
func (d Definition) ScaleCompute(factor float64) Definition {
	out := d
	out.Layers = make([]Layer, len(d.Layers))
	for i, l := range d.Layers {
		l.FwdCompute = uint64(float64(l.FwdCompute) / factor)
		l.IGCompute = uint64(float64(l.IGCompute) / factor)
		l.WGCompute = uint64(float64(l.WGCompute) / factor)
		out.Layers[i] = l
	}
	return out
}

// TotalComputeCycles sums all per-layer compute for one iteration.
func (d Definition) TotalComputeCycles() uint64 {
	var t uint64
	for _, l := range d.Layers {
		t += l.FwdCompute + l.IGCompute + l.WGCompute
	}
	return t
}

// Parse reads the Fig. 8 workload input format:
//
//	<DATA|MODEL|HYBRID>
//	<number of layers>
//	then per layer, five lines:
//	  <name>
//	  <fwd cycles> <input-grad cycles> <weight-grad cycles>
//	  <fwd comm type> <input-grad comm type> <weight-grad comm type>
//	  <fwd bytes> <input-grad bytes> <weight-grad bytes>
//	  <local update cycles per KB>
//
// Blank lines and lines starting with '#' are ignored.
func Parse(name string, r io.Reader) (Definition, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	next := func() (string, error) {
		for sc.Scan() {
			lineNo++
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			return line, nil
		}
		if err := sc.Err(); err != nil {
			return "", err
		}
		return "", io.ErrUnexpectedEOF
	}
	fail := func(err error, what string) (Definition, error) {
		return Definition{}, fmt.Errorf("workload %s line %d: %s: %w", name, lineNo, what, err)
	}

	d := Definition{Name: name}
	line, err := next()
	if err != nil {
		return fail(err, "reading parallelism")
	}
	if d.Parallelism, err = ParseParallelism(line); err != nil {
		return fail(err, "parsing parallelism")
	}
	line, err = next()
	if err != nil {
		return fail(err, "reading layer count")
	}
	n, err := strconv.Atoi(line)
	if err != nil || n <= 0 {
		return fail(fmt.Errorf("invalid layer count %q", line), "parsing layer count")
	}
	seen := make(map[string]int, n) // layer name -> line number
	for i := 0; i < n; i++ {
		var l Layer
		if l.Name, err = next(); err != nil {
			return fail(err, fmt.Sprintf("layer %d name", i))
		}
		if prev, dup := seen[l.Name]; dup {
			// Duplicate names would silently merge two layers' stats rows
			// and make graph node IDs collide.
			return fail(fmt.Errorf("duplicate layer name %q (first defined on line %d)", l.Name, prev),
				fmt.Sprintf("layer %d name", i))
		}
		seen[l.Name] = lineNo
		line, err = next()
		if err != nil {
			return fail(err, fmt.Sprintf("layer %d compute times", i))
		}
		if _, err = fmt.Sscan(line, &l.FwdCompute, &l.IGCompute, &l.WGCompute); err != nil {
			return fail(err, fmt.Sprintf("layer %d compute times %q", i, line))
		}
		line, err = next()
		if err != nil {
			return fail(err, fmt.Sprintf("layer %d comm types", i))
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return fail(fmt.Errorf("want 3 comm types, got %q", line), fmt.Sprintf("layer %d", i))
		}
		if l.FwdComm, l.FwdScope, err = parseCommToken(fields[0]); err != nil {
			return fail(err, fmt.Sprintf("layer %d fwd comm", i))
		}
		if l.IGComm, l.IGScope, err = parseCommToken(fields[1]); err != nil {
			return fail(err, fmt.Sprintf("layer %d input-grad comm", i))
		}
		if l.WGComm, l.WGScope, err = parseCommToken(fields[2]); err != nil {
			return fail(err, fmt.Sprintf("layer %d weight-grad comm", i))
		}
		line, err = next()
		if err != nil {
			return fail(err, fmt.Sprintf("layer %d comm sizes", i))
		}
		if _, err = fmt.Sscan(line, &l.FwdBytes, &l.IGBytes, &l.WGBytes); err != nil {
			return fail(err, fmt.Sprintf("layer %d comm sizes %q", i, line))
		}
		line, err = next()
		if err != nil {
			return fail(err, fmt.Sprintf("layer %d update time", i))
		}
		// The update-time line is "<cycles per KB> [placement]"; the
		// optional second token places the layer's tensors on the
		// remote-memory tier.
		fields = strings.Fields(line)
		if len(fields) < 1 || len(fields) > 2 {
			return fail(fmt.Errorf("want \"<update per KB> [placement]\", got %q", line),
				fmt.Sprintf("layer %d update time", i))
		}
		if l.UpdatePerKB, err = strconv.ParseUint(fields[0], 10, 64); err != nil {
			return fail(err, fmt.Sprintf("layer %d update time %q", i, line))
		}
		if len(fields) == 2 {
			if l.Placement, err = compute.ParsePlacement(fields[1]); err != nil {
				return fail(err, fmt.Sprintf("layer %d tensor placement", i))
			}
		}
		d.Layers = append(d.Layers, l)
	}
	if err := d.Validate(); err != nil {
		return Definition{}, err
	}
	return d, nil
}

// Write emits the definition in the Parse format.
func Write(w io.Writer, d Definition) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n%s\n%d\n", d.Name, d.Parallelism, len(d.Layers))
	for _, l := range d.Layers {
		placement := ""
		if l.Placement != compute.PlaceLocal {
			placement = " " + l.Placement.String()
		}
		fmt.Fprintf(bw, "%s\n%d %d %d\n%s %s %s\n%d %d %d\n%d%s\n",
			l.Name,
			l.FwdCompute, l.IGCompute, l.WGCompute,
			commToken(l.FwdComm, l.FwdScope), commToken(l.IGComm, l.IGScope), commToken(l.WGComm, l.WGScope),
			l.FwdBytes, l.IGBytes, l.WGBytes,
			l.UpdatePerKB, placement)
	}
	return bw.Flush()
}

// parseCommToken parses "OP" or "OP@scope" ("ALLREDUCE@local+horizontal").
func parseCommToken(tok string) (collectives.Op, Scope, error) {
	opPart, scopePart, hasScope := strings.Cut(tok, "@")
	op, err := collectives.ParseOp(opPart)
	if err != nil {
		return 0, "", err
	}
	if !hasScope {
		return op, "", nil
	}
	if _, err := topology.ParseScope(scopePart); err != nil {
		return 0, "", err
	}
	return op, Scope(scopePart), nil
}

// commToken renders an op with its optional scope suffix.
func commToken(op collectives.Op, sc Scope) string {
	if sc == "" {
		return op.String()
	}
	return op.String() + "@" + string(sc)
}
