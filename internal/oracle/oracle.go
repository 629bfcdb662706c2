// Package oracle is an independent, closed-form cost model for the
// simulator's collectives: it predicts the end-to-end completion cycles
// of a collective from topology parameters alone — link bandwidth,
// efficiency, traversal latency, router latency, hop counts, endpoint
// (NMU) delay, and the per-phase message-size algebra of each
// algorithm x topology pair — without executing the event-driven
// simulator.
//
// The oracle exists for differential verification (the SCALE-Sim style
// analytical cross-check): the event-driven System/network layers and
// this package derive the same quantity from first principles along two
// fully independent code paths. internal/collectives/conservation_test.go
// asserts the two agree cycle-for-cycle over the whole op x topology x
// algorithm corpus, so a regression in the scheduler, the network
// pipeline, or the phase algebra trips a zero-tolerance test.
//
// # Validity domain
//
// Predict is exact in the *uncongested single-chunk regime*:
//
//   - one collective in flight, compiled to a single chunk
//     (PreferredSetSplits == 1, or a set below two chunk granules),
//   - aggressive injection (no per-link injection throttling),
//   - no fault injection (stragglers are supported; they only rescale
//     endpoint service times),
//   - link input buffers never fill (the oracle verifies this while
//     evaluating and refuses to predict otherwise).
//
// In that regime every timing the simulator produces is a composition of
// four closed-form pieces, which the oracle evaluates in phase order with
// exact integer/carry arithmetic:
//
//	serialization  ser(B)  = B / (bandwidth x efficiency)   per link, with
//	                         sub-cycle carry, min 1 cycle per packet
//	hop            hop(l)  = latency(l) + routerLatency     per traversed link
//	endpoint       ep      = (endpointDelay + transport) x stragglerFactor
//	                         per message, serialized per node, with carry
//	phase algebra  B_step  = scale x setBytes x f(op, step, groupSize)
//
// Messages sharing a switch link (direct phases) serialize back-to-back
// in issue order; the oracle replays that order arithmetically with a
// worklist keyed by (time, issue order) — the same total order the
// simulator's event queue uses — so shared-resource ties resolve
// identically. With chunking enabled (dispatcher concurrency),
// PredictBounds returns a documented envelope instead of an exact value:
// the simulated completion lies in [max over chunks of the solo-chunk
// prediction, sum over chunks of the solo-chunk predictions].
//
// Bounds is the first-order α-β envelope over the same phase algebra (no
// carries, no tie-breaking): a lower bound no simulation can beat and an
// uncongested estimate, valid at any chunk split. It is the
// back-of-envelope arithmetic of DESIGN.md §9 and the cost model of the
// extvalidate study.
package oracle

import (
	"fmt"
	"math/bits"

	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/topology"
)

// Phase is the oracle's own compilation of one collective dimension-phase.
// It deliberately re-derives the algebra of collectives.Phase rather than
// importing it, so the two implementations check each other.
type Phase struct {
	Dim     topology.Dim
	Op      collectives.Op
	Direct  bool
	Halving bool
	Size    int
	Scale   float64
}

// halvingRounds is log2(N); halving phases only compile on power-of-two
// sizes.
func (p Phase) halvingRounds() int {
	return bits.Len(uint(p.Size)) - 1
}

// NumSteps mirrors the per-phase step count: ring RS/AG/A2A take N-1
// dependent steps, ring AR takes 2(N-1), a direct exchange takes 1 (2 for
// AR), and halving-doubling takes log2(N) (2*log2(N) for AR).
func (p Phase) NumSteps() int {
	if p.Size <= 1 {
		return 0
	}
	if p.Halving {
		if p.Op == collectives.AllReduce {
			return 2 * p.halvingRounds()
		}
		return p.halvingRounds()
	}
	if p.Direct {
		if p.Op == collectives.AllReduce {
			return 2
		}
		return 1
	}
	if p.Op == collectives.AllReduce {
		return 2 * (p.Size - 1)
	}
	return p.Size - 1
}

// StepBytes mirrors the per-message size algebra: ring RS/AG/AR messages
// are D/N, ring all-to-all relays shrink as D(N-1-s)/N, direct exchanges
// send D/N to every peer, halving sweeps exchange D/2^(s+1) and doubling
// sweeps D*2^s/N; never zero bytes.
func (p Phase) StepBytes(step int, chunkBytes int64) int64 {
	if p.Size <= 1 {
		return 0
	}
	d := p.Scale * float64(chunkBytes)
	n := float64(p.Size)
	var b float64
	switch {
	case p.Halving:
		k := p.halvingRounds()
		s := step
		doubling := p.Op == collectives.AllGather
		if p.Op == collectives.AllReduce && step >= k {
			doubling, s = true, step-k
		}
		if doubling {
			b = d * float64(int64(1)<<s) / n
		} else {
			b = d / float64(int64(2)<<s)
		}
	case !p.Direct && p.Op == collectives.AllToAll:
		b = d * (n - 1 - float64(step)) / n
	default:
		b = d / n
	}
	bytes := int64(b)
	if bytes < 1 {
		bytes = 1
	}
	return bytes
}

// halvingPartnerIndex mirrors the XOR-partner schedule: recursive halving
// across masks N/2..1 for the reduce-scatter sweep, recursive doubling
// across masks 1..N/2 for the all-gather sweep, the two back to back for
// all-reduce.
func (p Phase) halvingPartnerIndex(idx, step int) int {
	k := p.halvingRounds()
	switch p.Op {
	case collectives.ReduceScatter:
		return idx ^ (p.Size >> (step + 1))
	case collectives.AllGather:
		return idx ^ (1 << step)
	case collectives.AllReduce:
		if step < k {
			return idx ^ (p.Size >> (step + 1))
		}
		return idx ^ (1 << (step - k))
	}
	panic(fmt.Sprintf("oracle: no halving schedule for %v", p.Op))
}

// messagesPerStep is how many messages each node sends (and receives) per
// step: one ring neighbor message, or Size-1 direct peer messages.
func (p Phase) messagesPerStep() int {
	if p.Direct {
		return p.Size - 1
	}
	return 1
}

// CompilePhases lowers op over topo into the oracle's phase list,
// re-deriving the hierarchical composition rules of paper §III-D
// independently of internal/collectives: baseline runs the full
// collective on every active dimension in order; enhanced all-reduce is
// local RS, 1/M-scaled inter-package ARs, local AG; reduce-scatter
// telescopes its scale down through the dimensions and all-gather mirrors
// it back up. Size-1 dimensions contribute no phases.
func CompilePhases(op collectives.Op, topo topology.Topology, alg config.Algorithm) ([]Phase, error) {
	var dims []topology.DimInfo
	for _, d := range topo.Dims() {
		if d.Size > 1 {
			dims = append(dims, d)
		}
	}
	switch op {
	case collectives.None:
		return nil, nil
	case collectives.AllReduce:
		if alg == config.Enhanced && len(dims) >= 2 && dims[0].Dim == topology.DimLocal {
			local := dims[0]
			m := float64(local.Size)
			phases := []Phase{dimPhase(local, collectives.ReduceScatter, 1)}
			for _, d := range dims[1:] {
				phases = append(phases, dimPhase(d, collectives.AllReduce, 1/m))
			}
			return append(phases, dimPhase(local, collectives.AllGather, 1)), nil
		}
		phases := make([]Phase, 0, len(dims))
		for _, d := range dims {
			phases = append(phases, dimPhase(d, collectives.AllReduce, 1))
		}
		return phases, nil
	case collectives.AllToAll:
		phases := make([]Phase, 0, len(dims))
		for _, d := range dims {
			phases = append(phases, dimPhase(d, collectives.AllToAll, 1))
		}
		return phases, nil
	case collectives.ReduceScatter:
		phases := make([]Phase, 0, len(dims))
		scale := 1.0
		for _, d := range dims {
			phases = append(phases, dimPhase(d, collectives.ReduceScatter, scale))
			scale /= float64(d.Size)
		}
		return phases, nil
	case collectives.AllGather:
		phases := make([]Phase, 0, len(dims))
		scale := 1.0
		for _, d := range dims {
			scale /= float64(d.Size)
		}
		for i := len(dims) - 1; i >= 0; i-- {
			d := dims[i]
			scale *= float64(d.Size)
			phases = append(phases, dimPhase(d, collectives.AllGather, scale))
		}
		return phases, nil
	}
	return nil, fmt.Errorf("oracle: cannot compile op %v", op)
}

// dimPhase builds one phase over dimension d, re-deriving the transport
// choice: halving-doubling on halving dimensions (all-to-all stays a
// direct exchange there), direct on other direct dimensions, ring
// otherwise.
func dimPhase(d topology.DimInfo, op collectives.Op, scale float64) Phase {
	halving := d.Halving && op != collectives.AllToAll
	return Phase{
		Dim: d.Dim, Op: op,
		Direct:  d.Direct && !halving,
		Halving: halving,
		Size:    d.Size, Scale: scale,
	}
}

// Prediction is the oracle's output for one collective.
type Prediction struct {
	// Cycles is the predicted end-to-end completion time.
	Cycles eventq.Time
	// PhaseEnds are the predicted absolute completion times of each
	// phase, in phase order (the last entry equals Cycles).
	PhaseEnds []eventq.Time
	// Phases is the oracle's own compilation of the collective.
	Phases []Phase
}

// Model predicts collective completion times over one topology and
// configuration pair. Predict calls are independent (no simulation state
// carries over); straggler factors installed with SetNodeStragglerFactor
// persist across calls.
type Model struct {
	topo    topology.Topology
	sys     config.System
	net     config.Network
	epScale []float64
}

// NewModel validates the configuration and the oracle's standing
// precondition: aggressive injection (the paper's default). Normal
// injection throttling is a queueing process the closed form does not
// model.
func NewModel(topo topology.Topology, sysCfg config.System, netCfg config.Network) (*Model, error) {
	if err := sysCfg.Validate(); err != nil {
		return nil, err
	}
	if err := netCfg.Validate(); err != nil {
		return nil, err
	}
	if sysCfg.InjectionPolicy != config.AggressiveInjection {
		return nil, fmt.Errorf("oracle: only aggressive injection is modeled, got %v", sysCfg.InjectionPolicy)
	}
	scale := make([]float64, topo.NumNPUs())
	for i := range scale {
		scale[i] = 1
	}
	return &Model{topo: topo, sys: sysCfg, net: netCfg, epScale: scale}, nil
}

// SetNodeStragglerFactor rescales one node's endpoint service time, the
// oracle-side mirror of system.System.SetNodeStragglerFactor. Like its
// mirror it returns errors — node and factor arrive from user-supplied
// plans.
func (m *Model) SetNodeStragglerFactor(n topology.Node, factor float64) error {
	if n < 0 || int(n) >= len(m.epScale) {
		return fmt.Errorf("oracle: straggler node %d out of range (%d NPUs)", n, len(m.epScale))
	}
	if factor <= 0 {
		return fmt.Errorf("oracle: straggler factor must be positive, got %v", factor)
	}
	m.epScale[n] = factor
	return nil
}

// chunkSizes mirrors the system layer's set splitting: PreferredSetSplits
// chunks, floored so no chunk shrinks below the 1024-byte granule, with
// the remainder spread one byte at a time over the first chunks.
func (m *Model) chunkSizes(bytes int64) []int64 {
	n := m.sys.PreferredSetSplits
	if int64(n) > bytes/1024 {
		n = int(bytes / 1024)
		if n < 1 {
			n = 1
		}
	}
	per := bytes / int64(n)
	rem := bytes - per*int64(n)
	sizes := make([]int64, n)
	for i := range sizes {
		sizes[i] = per
		if int64(i) < rem {
			sizes[i]++
		}
	}
	return sizes
}

// Predict returns the exact completion cycles of a single-chunk
// collective of op over bytes. It errors if the configuration would split
// the set into more than one chunk (use PredictBounds there) or if the
// evaluation leaves the uncongested regime.
func (m *Model) Predict(op collectives.Op, bytes int64) (Prediction, error) {
	if bytes <= 0 {
		return Prediction{}, fmt.Errorf("oracle: collective size must be positive, got %d", bytes)
	}
	if n := len(m.chunkSizes(bytes)); n != 1 {
		return Prediction{}, fmt.Errorf("oracle: %d bytes split into %d chunks; Predict is exact only for single-chunk runs (set PreferredSetSplits to 1 or use PredictBounds)", bytes, n)
	}
	return m.predictChunk(op, bytes)
}

// PredictBounds returns the documented completion envelope for a chunked
// (dispatcher-concurrent) run: the simulated completion lies within
// [lower, upper], where lower is the largest solo-chunk prediction (each
// chunk needs at least its uncontended time) and upper is the sum of the
// solo-chunk predictions (fully serial execution). Chunk pipelining
// places the true value between the two.
func (m *Model) PredictBounds(op collectives.Op, bytes int64) (lower, upper eventq.Time, err error) {
	if bytes <= 0 {
		return 0, 0, fmt.Errorf("oracle: collective size must be positive, got %d", bytes)
	}
	for _, sz := range m.chunkSizes(bytes) {
		p, err := m.predictChunk(op, sz)
		if err != nil {
			return 0, 0, err
		}
		if p.Cycles > lower {
			lower = p.Cycles
		}
		upper += p.Cycles
	}
	return lower, upper, nil
}

// Bounds is the first-order α-β envelope of one collective.
type Bounds struct {
	// Lower is a time no correct simulation can beat (cycles).
	Lower float64
	// Estimate is the expected uncongested completion time (cycles).
	Estimate float64
}

// Bounds returns the α-β envelope of op over bytes at any chunk split.
// Each phase costs max(bandwidth, latency) as its lower bound and their
// sum as its estimate:
//
//	bandwidth = (bytes a node transmits in the phase) / (lanes x bw)
//	latency   = steps x (hops x (latency + router) + ep)
//
// where lanes counts the dimension's channels (at most Size-1 peers for a
// direct exchange), a direct step crosses 2 hops (NPU, switch, NPU), and
// ep is the endpoint delay (plus the transport delay on scale-out). Chunk
// pipelining overlaps phases, so the collective's lower bound is its
// bottleneck phase while the estimate adds every phase.
func (m *Model) Bounds(op collectives.Op, bytes int64) (Bounds, error) {
	phases, err := CompilePhases(op, m.topo, m.sys.Algorithm)
	if err != nil {
		return Bounds{}, err
	}
	channels := make(map[topology.Dim]int)
	for _, d := range m.topo.Dims() {
		channels[d.Dim] = d.Channels
	}
	var out Bounds
	for _, ph := range phases {
		bw, latency, _ := m.classParams(dimClass(ph.Dim))
		hops := 1.0
		if ph.Direct {
			hops = 2
		}
		perStep := hops*float64(latency+m.net.RouterLatency) + float64(m.sys.EndpointDelay)
		if ph.Dim == topology.DimScaleOut {
			perStep += float64(m.sys.TransportDelay)
		}
		lanes := float64(channels[ph.Dim])
		if peers := float64(ph.Size - 1); ph.Direct && peers < lanes {
			lanes = peers
		}
		var sent int64
		for s := 0; s < ph.NumSteps(); s++ {
			sent += ph.StepBytes(s, bytes) * int64(ph.messagesPerStep())
		}
		bwTime := float64(sent) / (lanes * bw)
		latTime := float64(ph.NumSteps()) * perStep
		out.Lower = max(out.Lower, bwTime, latTime)
		out.Estimate += bwTime + latTime
	}
	return out, nil
}

// dimClass is the link class a dimension's phases travel over.
func dimClass(d topology.Dim) topology.LinkClass {
	switch d {
	case topology.DimLocal:
		return topology.IntraPackage
	case topology.DimScaleOut:
		return topology.ScaleOutLink
	}
	return topology.InterPackage
}

// classParams returns a link class's effective bandwidth (bandwidth x
// efficiency, the β of the α-β model), traversal latency and packet size.
func (m *Model) classParams(c topology.LinkClass) (bw float64, latency uint64, pktSize int) {
	n := m.net
	switch c {
	case topology.IntraPackage:
		return n.LocalLinkBandwidth * n.LocalLinkEfficiency, n.LocalLinkLatency, n.LocalPacketSize
	case topology.InterPackage:
		return n.PackageLinkBandwidth * n.PackageLinkEfficiency, n.PackageLinkLatency, n.PackagePacketSize
	}
	return n.ScaleOutLinkBandwidth * n.ScaleOutLinkEfficiency, n.ScaleOutLinkLatency, n.ScaleOutPacketSize
}
