// Package pdes implements conservative-lookahead parallel discrete-event
// simulation *inside one run*: the packet-level network's event load is
// partitioned across per-component eventq shards that a worker pool
// advances in bounded windows, while the system/workload layers keep
// running on the main engine. It is the scale layer behind the
// `-intra-parallel` flag (DESIGN.md §13).
//
// # Partitioning
//
// BuildPlan walks every collective lane the topology can schedule (each
// dimension × channel: ring successor hops, or all pairs of a direct
// group) and unions the links each lane traverses. The resulting
// components are closed under packet movement: once a message's first
// link is known, every event it generates (serialization, hop arrival,
// backpressure, release) stays inside one component, so a component is a
// unit of ownership that one engine can advance without locks. Links a
// lane never visits at path position >= 1 are flagged no-transit: nothing
// reaches them except source injections, which licenses the network's
// packet trains (closed-form FIFO serialization, noc/train.go) on serial
// and partitioned runs alike — the same admission reasoning
// internal/oracle uses to declare a config inside its exact domain.
//
// # Lookahead and the window protocol
//
// The lookahead L is the minimum over all links of (link latency + router
// latency): any event one engine creates for another engine lies at least
// L cycles in the future, because cross-engine traffic only happens
// through a link hop (shard→main deliveries) or is spliced before the
// target runs (main→shard injections). Each round the Runner computes
// t = min(next event time over all engines) and the window
// [t, t+L-1]. The main engine runs the window first — so any work it
// splices into a shard at time u <= t+L-1 is enqueued before that shard
// runs — then all shards run the same window in parallel (they are
// mutually independent within L cycles), then buffered shard→main
// deliveries are flushed under the barrier. Events created inside a
// window for the same window land on the creating engine itself, which
// fires them before returning, so no event is ever missed.
//
// # Determinism
//
// Results are byte-identical to the serial engine at every worker count.
// The partition is a pure function of the topology, the number of shard
// engines is fixed by the component count (not the worker count), and
// every cross-engine event carries an explicit eventq.Key that places it
// in the target's total order exactly where the serial run would have
// fired it (see the eventq package comment for the ordering proof).
// Worker count only changes which OS thread advances a shard — never
// what the shard observes.
//
// # Concurrency contract
//
// A Runner is owned by the goroutine driving the main engine (Drive is
// installed as that engine's driver and must not be called directly).
// During a window's parallel phase, each shard engine — and every link
// bound to it — is owned exclusively by one parallel.ShardPool worker.
// Worker 0 is the driving goroutine itself: it advances shards 0,
// workers, 2·workers, … while the pool's other goroutines advance the
// rest. The barrier at the window's end transfers that ownership back
// before the flush runs, so no shard state is ever accessed by two
// goroutines at once and the hot path takes no locks. Everything
// outside the window protocol (system layer, workload, stats reads)
// stays on the main goroutine exactly as in a serial run.
package pdes

import (
	"fmt"

	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/parallel"
	"astrasim/internal/topology"
)

// maxShards caps the number of shard engines: beyond ~32 the per-window
// scheduling overhead outweighs heap-size wins. The cap is a constant so
// the shard count — and therefore the event order — never depends on the
// machine or the worker count.
const maxShards = 32

// Plan is the static partition of a topology's links into independently
// advanceable components.
type Plan struct {
	// Comp assigns every link (indexed by LinkID) a 1-based component;
	// component 0 is reserved for the main engine in event-ordering keys.
	Comp []int32
	// NumComps is the number of components (Comp values span [1, NumComps]).
	NumComps int
	// NoTransit flags links that no collective lane ever uses at path
	// position >= 1: traffic can only enter them by source injection,
	// never from an upstream link.
	NoTransit []bool
	// Lookahead is the conservative window width: the minimum hop delay
	// (link latency + router latency) over all links.
	Lookahead eventq.Time
}

// BuildPlan partitions topo's links for intra-run parallel simulation
// under the given network parameters. It fails when the topology has no
// links or when some link's hop delay is zero (a zero-latency link makes
// conservative lookahead degenerate — run serially instead).
func BuildPlan(topo topology.Topology, netCfg config.Network) (*Plan, error) {
	links := topo.Links()
	if len(links) == 0 {
		return nil, fmt.Errorf("pdes: topology %s has no links to partition", topo.Name())
	}

	// Union-find over links: lanes that share a link share a component.
	parent := make([]int32, len(links))
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	transit := make([]bool, len(links))
	unite := func(path []topology.LinkID) {
		for i, id := range path {
			if i > 0 {
				transit[id] = true
				a, b := find(int32(path[0])), find(int32(id))
				if a != b {
					parent[b] = a
				}
			}
		}
	}

	// Enumerate every lane the system layer can schedule: for each
	// dimension and channel, the ring successor hop of every NPU, or — for
	// direct dimensions — every ordered pair within each group.
	npus := topo.NumNPUs()
	for _, d := range topo.Dims() {
		if d.Size <= 1 {
			// A degenerate dimension schedules no traffic (and its
			// single-node "rings" own no links).
			continue
		}
		for ch := 0; ch < d.Channels; ch++ {
			if d.Direct {
				for n := 0; n < npus; n++ {
					g := topo.Group(d.Dim, topology.Node(n))
					// Visit each group once, from its first member.
					if len(g) == 0 || g[0] != topology.Node(n) {
						continue
					}
					for _, src := range g {
						for _, dst := range g {
							if src == dst {
								continue
							}
							unite(topo.PathLinks(d.Dim, ch, src, dst))
						}
					}
				}
			} else {
				for n := 0; n < npus; n++ {
					node := topology.Node(n)
					r := topo.RingOf(d.Dim, node, ch)
					if r.Size() <= 1 {
						continue
					}
					unite(topo.PathLinks(d.Dim, ch, node, r.Next(node)))
				}
			}
		}
	}

	// Densify component roots into 1-based ids, in LinkID order so the
	// numbering is a pure function of the topology.
	p := &Plan{
		Comp:      make([]int32, len(links)),
		NoTransit: make([]bool, len(links)),
	}
	compOf := make(map[int32]int32, len(links))
	for i := range links {
		root := find(int32(i))
		c, ok := compOf[root]
		if !ok {
			p.NumComps++
			c = int32(p.NumComps)
			compOf[root] = c
		}
		p.Comp[i] = c
		p.NoTransit[i] = !transit[i]
	}

	p.Lookahead = minHopDelay(links, netCfg)
	if p.Lookahead == 0 {
		return nil, fmt.Errorf("pdes: zero hop delay on %s makes conservative lookahead degenerate; intra-run parallelism needs positive link+router latency", topo.Name())
	}
	return p, nil
}

// minHopDelay computes the conservative lookahead: the smallest
// post-serialization hop delay any link in the topology can impose.
func minHopDelay(links []topology.LinkSpec, p config.Network) eventq.Time {
	min := ^eventq.Time(0)
	for _, spec := range links {
		var lat uint64
		switch spec.Class {
		case topology.IntraPackage:
			lat = p.LocalLinkLatency
		case topology.InterPackage:
			lat = p.PackageLinkLatency
		case topology.ScaleOutLink:
			lat = p.ScaleOutLinkLatency
		}
		if d := eventq.Time(lat + p.RouterLatency); d < min {
			min = d
		}
	}
	return min
}

// Runner drives one partitioned simulation: the main engine plus the
// plan's shard engines, advanced in lookahead-bounded windows. Install
// Drive as the main engine's driver (eventq.SetDriver) so existing
// Run/RunUntil call sites transparently execute the windowed schedule.
type Runner struct {
	main    *eventq.Engine
	shards  []*eventq.Engine
	look    eventq.Time
	workers int
	// flush drains buffered cross-engine traffic (shard→main message
	// deliveries) under the barrier at the end of every window.
	flush   func()
	windows uint64
	// onShard, when non-nil, observes worker w starting shard i's window
	// (a test hook pinning the shard→worker assignment).
	onShard func(w, i int)
}

// NewRunner builds a runner over main with one shard engine per plan
// component, capped at maxShards (components beyond the cap share engines
// round-robin — a pure function of the component id, so the event order
// is machine-independent). workers is the pool width for advancing
// shards; values < 1 select 1. The worker count never affects results,
// only wall-clock time.
func NewRunner(main *eventq.Engine, plan *Plan, workers int) *Runner {
	n := plan.NumComps
	if n > maxShards {
		n = maxShards
	}
	shards := make([]*eventq.Engine, n)
	for i := range shards {
		shards[i] = eventq.New()
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	return &Runner{main: main, shards: shards, look: plan.Lookahead, workers: workers}
}

// Shards exposes the shard engines in component order; component c's
// links live on Shards()[(c-1) % len(Shards())].
func (r *Runner) Shards() []*eventq.Engine { return r.shards }

// SetFlush installs the end-of-window hook that moves buffered
// shard→main events into the main engine (noc.Network.FlushCross).
func (r *Runner) SetFlush(fn func()) { r.flush = fn }

// Windows reports how many barrier windows have executed (for tests and
// diagnostics).
func (r *Runner) Windows() uint64 { return r.windows }

// Workers reports the configured pool width.
func (r *Runner) Workers() int { return r.workers }

// Drive is the eventq.DriverFunc implementing the window protocol
// described in the package comment. It honors Stop on the main engine
// (the run freezes at the end of the in-flight window) and fires the
// main engine's drain hook only at true quiescence — when every engine's
// queue is empty.
func (r *Runner) Drive(deadline eventq.Time, bounded bool) eventq.Time {
	pool := parallel.NewShardPool(r.workers)
	defer pool.Close()
	nshards := len(r.shards)
	for !r.main.Stopped() {
		t, ok := r.main.NextAt()
		for _, sh := range r.shards {
			if st, sok := sh.NextAt(); sok && (!ok || st < t) {
				t, ok = st, true
			}
		}
		if !ok || (bounded && t > deadline) {
			break
		}
		end := t + r.look - 1
		if end < t { // overflow at the end of representable time
			end = ^eventq.Time(0)
		}
		if bounded && end > deadline {
			end = deadline
		}
		// Main runs the window first: anything it splices into a shard at
		// u <= end is enqueued before that shard executes the window.
		r.main.RunWindow(end)
		if r.main.Stopped() {
			break
		}
		// Shards are mutually independent inside the window (any
		// cross-component influence is at least Lookahead away), so the
		// pool may advance them in any order. Shard i always runs on
		// worker i % workers, one after another, and worker 0 is this
		// goroutine: state shared by the shards of one worker (noc's
		// per-worker serialization memo) is never touched concurrently.
		pool.Run(func(w int) {
			for i := w; i < nshards; i += r.workers {
				if r.onShard != nil {
					r.onShard(w, i)
				}
				r.shards[i].RunWindow(end)
			}
		})
		if r.flush != nil {
			r.flush()
		}
		r.windows++
	}
	if r.main.Stopped() {
		return r.main.Now()
	}
	if bounded {
		// Match RunUntil: the clock tiles up to the deadline even when
		// the queues drained early.
		r.main.RunWindow(deadline)
	}
	if r.quiescent() {
		r.main.FireDrain()
	}
	return r.main.Now()
}

// quiescent reports whether every engine's queue is empty — the condition
// under which the drain hook may observe a settled simulation.
func (r *Runner) quiescent() bool {
	if r.main.Pending() > 0 {
		return false
	}
	for _, sh := range r.shards {
		if sh.Pending() > 0 {
			return false
		}
	}
	return true
}
