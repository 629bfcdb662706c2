// Package pdes implements conservative-lookahead parallel discrete-event
// simulation *inside one run*: the packet-level network's event load is
// partitioned across per-component eventq shards that a worker pool
// advances in bounded windows, while the system/workload layers keep
// running on the main engine. It is the scale layer behind the
// `-intra-parallel` flag (DESIGN.md §13). It only schedules the windows:
// the partition is the link plan noc.New builds (internal/noc/plan.go).
//
// # Partitioning
//
// The link plan's components are closed under packet movement: once a
// message's first link is known, every event it generates
// (serialization, hop arrival, backpressure, release) stays inside one
// component, so a component is a unit of ownership that one engine can
// advance without locks. Attach gives each component a shard engine.
//
// # Lookahead and the window protocol
//
// The lookahead L is the link plan's: the minimum hop delay (link
// latency + router latency) over all links. Any event one engine creates
// for another engine lies at least L cycles in the future, because
// cross-engine traffic only happens through a link hop (shard→main
// deliveries) or is spliced before the target runs (main→shard
// injections). Each round the Runner computes
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
	"astrasim/internal/eventq"
	"astrasim/internal/noc"
	"astrasim/internal/parallel"
)

// maxShards caps the number of shard engines: beyond ~32 the per-window
// scheduling overhead outweighs heap-size wins. The cap is a constant so
// the shard count — and therefore the event order — never depends on the
// machine or the worker count.
const maxShards = 32

// Runner drives one partitioned simulation: the main engine plus the
// link plan's shard engines, advanced in lookahead-bounded windows.
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

// Attach partitions net, a packet network on main, for intra-run
// parallel execution: it builds one shard engine per link-plan component,
// capped at maxShards (components beyond the cap share engines
// round-robin — a pure function of the component id, so the event order
// is machine-independent), rebinds the links to them and makes the
// windowed schedule main's run loop, so existing Run/RunUntil call sites
// execute it. workers is the pool width for advancing shards; values < 1
// select 1. The worker count never affects results, only wall-clock
// time. Attach fails when net has no link plan: a topology without links,
// or a zero hop delay, which makes conservative lookahead degenerate.
func Attach(main *eventq.Engine, net *noc.Network, workers int) (*Runner, error) {
	comps, look, err := net.Plan()
	if err != nil {
		return nil, err
	}
	shards := make([]*eventq.Engine, min(comps, maxShards))
	for i := range shards {
		shards[i] = eventq.New()
	}
	r := &Runner{main: main, shards: shards, look: look, workers: max(1, min(workers, len(shards)))}
	if err := r.attach(net); err != nil {
		return nil, err
	}
	return r, nil
}

// attach binds net's links to r's shards and makes Drive main's run loop.
func (r *Runner) attach(net *noc.Network) error {
	if err := net.Partition(r.shards, r.workers); err != nil {
		return err
	}
	r.flush = net.FlushCross
	r.main.SetDriver(r.Drive)
	return nil
}

// Shards exposes the shard engines in component order; component c's
// links live on Shards()[(c-1) % len(Shards())].
func (r *Runner) Shards() []*eventq.Engine { return r.shards }

// Windows reports how many barrier windows have executed (for tests and
// diagnostics).
func (r *Runner) Windows() uint64 { return r.windows }

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
