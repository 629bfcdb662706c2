package parallel

import (
	"bytes"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
)

func TestShardPoolBarrier(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		p := NewShardPool(workers)
		sums := make([]int64, workers)
		for round := 0; round < 100; round++ {
			p.Run(func(w int) { sums[w]++ })
			// Run is a barrier: every worker's write is visible here.
			var total int64
			for _, s := range sums {
				total += s
			}
			if total != int64((round+1)*workers) {
				t.Fatalf("workers=%d round %d: total %d, want %d", workers, round, total, (round+1)*workers)
			}
		}
		p.Close()
	}
}

func TestShardPoolWorkerIDs(t *testing.T) {
	p := NewShardPool(3)
	defer p.Close()
	var seen [3]atomic.Int32
	p.Run(func(w int) { seen[w].Add(1) })
	for w := range seen {
		if got := seen[w].Load(); got != 1 {
			t.Fatalf("worker %d ran %d times, want 1", w, got)
		}
	}
}

func TestShardPoolClampsWidth(t *testing.T) {
	if got := NewShardPool(0).Workers(); got != 1 {
		t.Fatalf("NewShardPool(0).Workers() = %d, want 1", got)
	}
	if got := NewShardPool(-3).Workers(); got != 1 {
		t.Fatalf("NewShardPool(-3).Workers() = %d, want 1", got)
	}
}

func TestShardPoolWidthOneInline(t *testing.T) {
	p := NewShardPool(1)
	if p.work != nil {
		t.Fatal("width-1 pool spawned goroutines")
	}
	ran := false
	p.Run(func(w int) {
		if w != 0 {
			t.Fatalf("width-1 worker id %d, want 0", w)
		}
		ran = true
	})
	if !ran {
		t.Fatal("width-1 Run did not execute inline")
	}
	p.Close() // no-op, must not panic
}

func TestShardPoolPanicLowestIndexFirst(t *testing.T) {
	p := NewShardPool(4)
	defer p.Close()
	func() {
		defer func() {
			if got := recover(); got != "worker 1 failed" {
				t.Fatalf("recovered %v, want the lowest-index panic", got)
			}
		}()
		p.Run(func(w int) {
			if w >= 1 {
				panic("worker " + string(rune('0'+w)) + " failed")
			}
		})
		t.Fatal("Run returned despite worker panics")
	}()
	// The pool stays usable after a recovered round, and the old panic
	// must not re-raise.
	var n atomic.Int64
	p.Run(func(int) { n.Add(1) })
	if n.Load() != 4 {
		t.Fatalf("post-panic round ran %d workers, want 4", n.Load())
	}
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine N [running]:").
func goid() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, err := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

func TestShardPoolCallerIsWorkerZero(t *testing.T) {
	p := NewShardPool(3)
	defer p.Close()
	caller := goid()
	var ids [3]uint64
	for round := 0; round < 10; round++ {
		p.Run(func(w int) { ids[w] = goid() })
		if ids[0] != caller {
			t.Fatalf("round %d: worker 0 ran on goroutine %d, want the caller's %d", round, ids[0], caller)
		}
		if ids[1] == caller || ids[2] == caller || ids[1] == ids[2] {
			t.Fatalf("round %d: workers 1 and 2 ran on goroutines %d and %d (caller %d), want two others", round, ids[1], ids[2], caller)
		}
	}
}

// TestShardPoolCallerPanicWaitsForRound: a panic in worker 0, which runs
// on the caller, is re-raised only after the other workers finish the
// round, ahead of higher-index panics, and leaves the pool usable.
func TestShardPoolCallerPanicWaitsForRound(t *testing.T) {
	p := NewShardPool(3)
	defer p.Close()
	var finished atomic.Bool
	zeroFailing := make(chan struct{})
	func() {
		defer func() {
			if got := recover(); got != "worker 0 failed" {
				t.Fatalf("recovered %v, want worker 0's panic", got)
			}
			if !finished.Load() {
				t.Fatal("worker 0's panic was re-raised before worker 1 finished the round")
			}
		}()
		p.Run(func(w int) {
			switch w {
			case 0:
				close(zeroFailing)
				panic("worker 0 failed")
			case 1:
				// Still running when worker 0 panics.
				<-zeroFailing
				finished.Store(true)
			case 2:
				panic("worker 2 failed")
			}
		})
		t.Fatal("Run returned despite worker panics")
	}()
	var n atomic.Int64
	p.Run(func(int) { n.Add(1) })
	if n.Load() != 3 {
		t.Fatalf("post-panic round ran %d workers, want 3", n.Load())
	}
}
