package eventq

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestZeroValueReady(t *testing.T) {
	var e Engine
	ran := false
	e.Schedule(5, func() { ran = true })
	if got := e.Run(); got != 5 {
		t.Fatalf("Run returned %d, want 5", got)
	}
	if !ran {
		t.Fatal("handler did not run")
	}
}

func TestOrderingByTime(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestSameCycleFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(7, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events fired out of insertion order: order[%d]=%d", i, v)
		}
	}
}

func TestNowDuringHandler(t *testing.T) {
	e := New()
	var seen []Time
	e.Schedule(4, func() { seen = append(seen, e.Now()) })
	e.Schedule(9, func() { seen = append(seen, e.Now()) })
	e.Run()
	if seen[0] != 4 || seen[1] != 9 {
		t.Fatalf("Now() inside handlers = %v, want [4 9]", seen)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var hits []Time
	var chain func()
	chain = func() {
		hits = append(hits, e.Now())
		if len(hits) < 5 {
			e.Schedule(10, chain)
		}
	}
	e.Schedule(0, chain)
	end := e.Run()
	if end != 40 {
		t.Fatalf("end time = %d, want 40", end)
	}
	for i, h := range hits {
		if h != Time(i*10) {
			t.Fatalf("hits[%d] = %d, want %d", i, h, i*10)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic when scheduling into the past")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for nil handler")
		}
	}()
	New().Schedule(1, nil)
}

func TestStop(t *testing.T) {
	e := New()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d after Stop, want 3", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("Pending = %d, want 7", e.Pending())
	}
	// Run can resume where it left off.
	e.Run()
	if count != 10 {
		t.Fatalf("count after resume = %d, want 10", count)
	}
}

// TestAbort: an aborted run stops like Stop, keeps the first error, and
// stays stopped: unlike a stopped run, Run and RunUntil do not resume it.
func TestAbort(t *testing.T) {
	e := New()
	first, second := errors.New("first"), errors.New("second")
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), func() {
			count++
			if count == 3 {
				e.Abort(first)
				e.Abort(second)
			}
		})
	}
	if e.Err() != nil {
		t.Fatalf("Err = %v before any abort", e.Err())
	}
	e.Run()
	if count != 3 || e.Err() != first || !e.Stopped() {
		t.Fatalf("after Abort: count %d, Err %v, stopped %v; want 3, %v, true", count, e.Err(), e.Stopped(), first)
	}
	e.Run()
	e.RunUntil(100)
	if count != 3 || e.Pending() != 7 || e.Now() != 2 {
		t.Fatalf("aborted engine ran on: count %d, pending %d, now %d; want 3, 7, 2", count, e.Pending(), e.Now())
	}
}

// TestSameCycleTieSortsByComponent pins what the single-engine order is:
// two events created in one handler for one cycle tie on (ctime, gen2),
// and the one on the lower component fires first although it was
// created second, as a serial packet network's sends stamp them.
func TestSameCycleTieSortsByComponent(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(5, func() {
		e.SetFiringComp(3)
		e.Schedule(1, func() { order = append(order, 1) })
		e.SetFiringComp(1)
		e.Schedule(1, func() { order = append(order, 2) })
	})
	e.Run()
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("fired %v, want [2 1]: the lower component first", order)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(12)
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 10 {
		t.Fatalf("fired = %v, want [5 10]", fired)
	}
	if e.Now() != 12 {
		t.Fatalf("Now = %d, want 12 (advanced to deadline)", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("after Run fired = %v, want all 4", fired)
	}
}

func TestRunUntilExactBoundary(t *testing.T) {
	e := New()
	hit := false
	e.At(10, func() { hit = true })
	e.RunUntil(10)
	if !hit {
		t.Fatal("event at exactly the deadline should fire")
	}
}

// TestRunUntilEdgeCases pins the RunUntil/Stop contract across the edge
// cases: empty queues, deadlines before the first event, deadlines in the
// past, and Stop freezing the clock mid-run.
func TestRunUntilEdgeCases(t *testing.T) {
	tests := []struct {
		name string
		// setup schedules events and returns the deadline to run to.
		setup       func(e *Engine) Time
		wantNow     Time
		wantFired   uint64
		wantPending int
	}{
		{
			name:    "empty queue advances clock to deadline",
			setup:   func(e *Engine) Time { return 100 },
			wantNow: 100,
		},
		{
			name: "deadline before first event advances clock, keeps event queued",
			setup: func(e *Engine) Time {
				e.At(50, func() {})
				return 20
			},
			wantNow:     20,
			wantPending: 1,
		},
		{
			name: "queue drained before deadline still reaches deadline",
			setup: func(e *Engine) Time {
				e.At(5, func() {})
				return 80
			},
			wantNow:   80,
			wantFired: 1,
		},
		{
			name: "deadline in the past fires nothing and keeps the clock",
			setup: func(e *Engine) Time {
				e.At(10, func() {})
				e.RunUntil(30) // now = 30
				e.At(40, func() {})
				return 15 // before now; time never moves backwards
			},
			wantNow:     30,
			wantFired:   1,
			wantPending: 1,
		},
		{
			name: "event exactly at the deadline fires",
			setup: func(e *Engine) Time {
				e.At(60, func() {})
				return 60
			},
			wantNow:   60,
			wantFired: 1,
		},
		{
			name: "stop freezes the clock at the stopping event",
			setup: func(e *Engine) Time {
				e.At(10, func() { e.Stop() })
				e.At(20, func() {})
				return 100
			},
			wantNow:     10,
			wantFired:   1,
			wantPending: 1,
		},
		{
			name: "stop on the last event does not advance to the deadline",
			setup: func(e *Engine) Time {
				e.At(10, func() { e.Stop() })
				return 100
			},
			wantNow:   10,
			wantFired: 1,
		},
		{
			name: "stale stop from a previous run is cleared",
			setup: func(e *Engine) Time {
				e.At(5, func() { e.Stop() })
				e.Run() // leaves stopped = true
				e.At(12, func() {})
				return 30
			},
			wantNow:   30,
			wantFired: 2,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			deadline := tc.setup(e)
			got := e.RunUntil(deadline)
			if got != tc.wantNow || e.Now() != tc.wantNow {
				t.Errorf("RunUntil(%d) = %d (Now %d), want %d", deadline, got, e.Now(), tc.wantNow)
			}
			if e.Fired() != tc.wantFired {
				t.Errorf("Fired = %d, want %d", e.Fired(), tc.wantFired)
			}
			if e.Pending() != tc.wantPending {
				t.Errorf("Pending = %d, want %d", e.Pending(), tc.wantPending)
			}
		})
	}
}

// TestRunUntilResumeAfterStop checks a stopped run resumes exactly where
// it froze, with no time gap or double-fire.
func TestRunUntilResumeAfterStop(t *testing.T) {
	e := New()
	var fired []Time
	e.At(10, func() { fired = append(fired, e.Now()); e.Stop() })
	e.At(20, func() { fired = append(fired, e.Now()) })
	if got := e.RunUntil(50); got != 10 {
		t.Fatalf("stopped RunUntil = %d, want 10", got)
	}
	if got := e.RunUntil(50); got != 50 {
		t.Fatalf("resumed RunUntil = %d, want 50", got)
	}
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 20 {
		t.Fatalf("fired = %v, want [10 20]", fired)
	}
}

// TestRunUntilTiling checks consecutive windows tile simulated time: each
// call lands exactly on its deadline when not stopped.
func TestRunUntilTiling(t *testing.T) {
	e := New()
	count := 0
	for i := Time(0); i < 100; i += 7 {
		e.At(i, func() { count++ })
	}
	for _, d := range []Time{10, 20, 30, 150} {
		if got := e.RunUntil(d); got != d {
			t.Fatalf("RunUntil(%d) = %d, want %d", d, got, d)
		}
	}
	if count != 15 {
		t.Fatalf("fired %d events, want 15", count)
	}
}

// TestSlotSize pins an arena slot at 64 bytes: one slot per cache line,
// and one argument word pair for the collector to scan per pending event
// (a second argument made it 80 bytes, across two lines).
func TestSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 64 {
		t.Fatalf("slot is %d bytes, want 64", got)
	}
}

func TestCallZeroAlloc(t *testing.T) {
	e := New()
	type payload struct{ hits int }
	p := &payload{}
	fn := func(a any) { a.(*payload).hits++ }
	// Warm the slot arena and the bucket tables so growth doesn't count.
	for i := 0; i < 64; i++ {
		e.Call(Time(i), fn, p)
	}
	e.Run()
	p.hits = 0
	avg := testing.AllocsPerRun(100, func() {
		e.Call(1, fn, p)
		e.Step()
	})
	if avg != 0 {
		t.Errorf("Call+Step allocates %.1f/op, want 0", avg)
	}
	if p.hits == 0 {
		t.Fatal("call handler never ran")
	}
}

// TestAtZeroAlloc: a prebuilt Handler rides through the static
// trampoline as an interface value, so At+Step allocates nothing once the
// arena has warmed up.
func TestAtZeroAlloc(t *testing.T) {
	e := New()
	hits := 0
	h := Handler(func() { hits++ })
	for i := 0; i < 64; i++ {
		e.At(Time(i), h)
	}
	e.Run()
	hits = 0
	avg := testing.AllocsPerRun(100, func() {
		e.At(e.Now()+1, h)
		e.Step()
	})
	if avg != 0 {
		t.Errorf("At+Step allocates %.1f/op, want 0", avg)
	}
	if hits == 0 {
		t.Fatal("handler never ran")
	}
}

// TestInjectAtZeroAlloc: cross-engine injection shares the arena path and
// allocates nothing in the steady state, also when the injected key sorts
// below the bucket's tail.
func TestInjectAtZeroAlloc(t *testing.T) {
	src, e := New(), New()
	k := src.EventKey() // ctime 0: sorts before every local event below
	hits := 0
	fn := func(a any) { hits++ }
	for i := 0; i < 64; i++ {
		e.InjectAt(Time(i), k, 0, fn, nil)
	}
	e.Run()
	hits = 0
	avg := testing.AllocsPerRun(100, func() {
		e.Call(1, fn, nil)
		e.InjectAt(e.Now()+1, k, 0, fn, nil)
		e.Step()
		e.Step()
	})
	if avg != 0 {
		t.Errorf("InjectAt+Step allocates %.1f/op, want 0", avg)
	}
	if hits == 0 {
		t.Fatal("injected handler never ran")
	}
}

func TestFiredCounter(t *testing.T) {
	e := New()
	for i := 0; i < 42; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Fired() != 42 {
		t.Fatalf("Fired = %d, want 42", e.Fired())
	}
}

// Property: for any set of timestamps, events fire in nondecreasing time
// order and all fire exactly once.
func TestPropertyMonotonicFiring(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		var fired []Time
		for _, d := range delays {
			d := Time(d)
			e.Schedule(d, func() { fired = append(fired, d) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		// Multiset equality with the input.
		want := make([]Time, len(delays))
		for i, d := range delays {
			want[i] = Time(d)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if want[i] != fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: determinism — two identical runs produce identical firing orders.
func TestPropertyDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var order []int
		for i := 0; i < 500; i++ {
			i := i
			e.Schedule(Time(rng.Intn(50)), func() { order = append(order, i) })
		}
		e.Run()
		return order
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// benchHold measures the steady-state hold model: pending events stay at
// pending because every fired event is replaced by one at a delay drawn
// from [1, spread]. One op is a round of 1000 fire-and-reschedule steps,
// so ns/op divided by 1000 is the cost of one event.
func benchHold(b *testing.B, pending int, spread uint64) {
	e := New()
	rng := uint64(88172645463325252)
	delay := func() Time {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return Time(rng%spread + 1)
	}
	fn := func(a any) {}
	for i := 0; i < pending; i++ {
		e.Call(delay(), fn, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1000; j++ {
			e.Step()
			e.Call(delay(), fn, nil)
		}
	}
}

// BenchmarkQueueClustered holds ~10k pending events over ~100 distinct
// cycles: the shape of a packet-level all-reduce.
func BenchmarkQueueClustered(b *testing.B) { benchHold(b, 10000, 100) }

// BenchmarkQueueDistinct holds ~10k pending events over 2^20 possible
// delays, so nearly every event fires at a cycle of its own: the worst
// case for a time-bucketed queue.
func BenchmarkQueueDistinct(b *testing.B) { benchHold(b, 10000, 1<<20) }

// BenchmarkQueueCrowded injects the pattern packet trains produce: 16
// trains of 64 deliveries each land in one future cycle under per-packet
// keys whose creation cycles lie ahead of now and interleave across the
// trains. Each train arrives after the ones before it, so its keys land
// below the cycle's tail, each a few keys after the train's previous key:
// the walk back from the tail and the finger place them. One op injects
// and fires the 1024 events.
func BenchmarkQueueCrowded(b *testing.B) {
	const trains, perTrain = 16, 64
	e := New()
	fn := func(a any) {}
	crowd := func() {
		at := e.Now() + trains*perTrain
		for t := 0; t < trains; t++ {
			for p := 0; p < perTrain; p++ {
				n := p*trains + t
				e.InjectAt(at, Key{Ctime: e.Now() + Time(n), Seq: uint64(n)}, 0, fn, nil)
			}
		}
		e.Run()
	}
	crowd() // warm the arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crowd()
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j%97), func() {})
		}
		e.Run()
	}
}
