package parallel

import "sync"

// ShardPool is a long-lived pool of worker goroutines for the pdes
// runner's window loop: the same N workers are dispatched thousands of
// times per run (once per lookahead window), so the pool keeps its
// goroutines parked between rounds instead of spawning per round.
//
// Concurrency contract: worker 0 is the goroutine that calls Run — it
// runs its own share of the round while workers 1..N-1 run theirs on
// N-1 parked goroutines — so a round costs N-1 park/wake pairs and the
// driving goroutine keeps its CPU. Run is a barrier — it returns only
// after every worker finished the round — so the caller regains
// exclusive access to everything the workers touched (the
// happens-before edges run through the dispatch channels and the round
// WaitGroup, satisfying the race detector). Like parallel.Map, a width
// of 1 degrades to an inline call on the caller's goroutine with zero
// synchronization, which keeps the single-worker configuration byte- and
// schedule-identical to serial code while paying no pool overhead.
type ShardPool struct {
	workers int
	// work[w-1] dispatches worker w's share; worker 0 has no channel.
	work []chan func(int)
	wg   sync.WaitGroup
	pans []any
}

// NewShardPool builds a pool of the given width; values < 1 select 1.
// A pool of width N parks N-1 goroutines (none at width 1). Close must
// be called when done.
func NewShardPool(workers int) *ShardPool {
	if workers < 1 {
		workers = 1
	}
	p := &ShardPool{workers: workers}
	if workers == 1 {
		return p
	}
	p.work = make([]chan func(int), workers-1)
	p.pans = make([]any, workers)
	for i := range p.work {
		ch := make(chan func(int))
		p.work[i] = ch
		go func(w int, ch chan func(int)) {
			for fn := range ch {
				p.runOne(w, fn)
			}
		}(i+1, ch)
	}
	return p
}

// runOne executes one worker's share of a round, capturing a panic for
// deterministic re-raise on the caller (lowest worker index wins, like
// parallel.Map).
func (p *ShardPool) runOne(w int, fn func(int)) {
	defer func() {
		p.pans[w] = recover()
		p.wg.Done()
	}()
	fn(w)
}

// Workers reports the pool width (minimum 1).
func (p *ShardPool) Workers() int { return p.workers }

// Run executes fn(w) for every worker id w in [0, Workers()) and returns
// when all calls complete; fn(0) runs on the calling goroutine. A panic
// in any worker, worker 0 included, is re-raised on the calling
// goroutine once the whole round has finished (lowest worker index
// first), so pool-driven code fails the same way inline code does.
func (p *ShardPool) Run(fn func(w int)) {
	if p.work == nil {
		fn(0)
		return
	}
	p.wg.Add(p.workers)
	for _, ch := range p.work {
		ch <- fn
	}
	p.runOne(0, fn)
	p.wg.Wait()
	for w, pan := range p.pans {
		if pan != nil {
			// Clear captured panics so a recovered caller can keep using
			// the pool without this round's failure re-raising later.
			for i := w; i < len(p.pans); i++ {
				p.pans[i] = nil
			}
			panic(pan)
		}
	}
}

// Close releases the pool's goroutines. The pool must not be used after
// Close; a width-1 pool's Close is a no-op.
func (p *ShardPool) Close() {
	for _, ch := range p.work {
		close(ch)
	}
	p.work = nil
}
