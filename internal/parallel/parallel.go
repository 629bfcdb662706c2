// Package parallel is the sweep execution engine: it fans independent
// simulation runs across a pool of worker goroutines while keeping every
// observable output deterministic.
//
// The simulator itself stays single-threaded by design — one
// eventq.Engine per run, bit-reproducible — but a SW/HW co-design sweep
// (every figure of the paper, every point of a design-space study) is a
// set of *independent* runs: distinct engines, distinct networks, no
// shared mutable state. Those runs are embarrassingly parallel. Runner
// executes them on up to Workers goroutines and hands results back in
// submission order, so a sweep executed with 1, 2 or NumCPU workers
// produces byte-identical tables.
//
// Determinism contract: jobs must not share mutable state (each job
// builds its own Engine/Network/System), and each job's result must be a
// pure function of its index. Read-only inputs (topologies, configs,
// options) may be shared freely.
//
// # Concurrency contract
//
// Runner, Map and ForEach are driven from one goroutine; the jobs they
// run execute on up to Workers pool goroutines and must be mutually
// independent, as above. ShardPool is the second, lower-level primitive
// (used by internal/pdes): long-lived workers that repeatedly execute a
// strided round over N shards with a full barrier per round — Run does
// not return until every worker has finished, so shard state needs no
// locks between rounds. A ShardPool is owned by one driving goroutine;
// only Run and Close may be called on it, never concurrently. Worker 0
// is that driving goroutine: Run executes worker 0's share itself and
// hands workers 1..N-1 to N-1 parked goroutines. Worker panics, worker
// 0's included, are re-raised on the caller lowest-index-first after the
// barrier, leaving the pool reusable.
package parallel

import (
	"runtime"
	"sync"
)

// Runner executes batches of independent jobs on a bounded worker pool.
// The zero value runs serially; New picks the pool width.
type Runner struct {
	workers int
}

// New returns a Runner with the given pool width. workers <= 0 selects
// runtime.NumCPU().
func New(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Runner{workers: workers}
}

// Serial returns a Runner that executes jobs inline on the calling
// goroutine, in index order — the reference behavior parallel runs must
// reproduce.
func Serial() *Runner { return &Runner{workers: 1} }

// Workers reports the pool width (minimum 1).
func (r *Runner) Workers() int {
	if r == nil || r.workers < 1 {
		return 1
	}
	return r.workers
}

// job result bookkeeping shared by the pool workers.
type outcome[T any] struct {
	val T
	err error
	pan any // recovered panic value, re-raised on the caller
}

// Map runs job(i) for every i in [0, n) across the runner's pool and
// returns the results indexed by i. Errors do not shuffle results: the
// returned error is the failing job with the lowest index, regardless of
// which worker hit it first, so error reporting is as deterministic as
// the data. A job that panics re-panics on the calling goroutine once the
// pool has drained.
//
// With one worker (or n <= 1) jobs run inline in index order — no
// goroutines — making Runner safe to drive from code that must also work
// single-threaded.
func Map[T any](r *Runner, n int, job func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers := r.Workers()
	if workers > n {
		workers = n
	}
	out := make([]outcome[T], n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			runOne(&out[i], i, job)
			if out[i].pan != nil {
				panic(out[i].pan)
			}
			// Serial mode keeps going after an error so that the
			// result set matches a parallel run, where in-flight
			// workers finish their jobs regardless.
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range next {
					runOne(&out[i], i, job)
				}
			}()
		}
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	vals := make([]T, n)
	var firstErr error
	for i := range out {
		if out[i].pan != nil {
			panic(out[i].pan)
		}
		if out[i].err != nil && firstErr == nil {
			firstErr = out[i].err
		}
		vals[i] = out[i].val
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return vals, nil
}

// runOne executes one job, capturing its result, error, or panic.
func runOne[T any](o *outcome[T], i int, job func(int) (T, error)) {
	defer func() {
		if p := recover(); p != nil {
			o.pan = p
		}
	}()
	o.val, o.err = job(i)
}

// ForEach runs job(i) for every i in [0, n) across the pool and returns
// the lowest-index error, if any.
func ForEach(r *Runner, n int, job func(i int) error) error {
	_, err := Map(r, n, func(i int) (struct{}, error) { return struct{}{}, job(i) })
	return err
}
