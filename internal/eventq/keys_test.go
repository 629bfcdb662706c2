package eventq

import "testing"

// TestInjectAtOrdersByCreationTime: an event injected under an explicit
// key sorts against the target's local events by the full six-field key —
// here the creation-time tiebreak: local events created at cycle 0 fire
// before an injected event created (on another engine) at cycle 5, even
// though all fire at the same cycle.
func TestInjectAtOrdersByCreationTime(t *testing.T) {
	src, dst := New(), New()
	var order []string
	dst.At(10, func() { order = append(order, "local-a") })
	dst.At(10, func() { order = append(order, "local-b") })

	src.At(5, func() {
		k := src.EventKey() // ctime 5 on the source engine
		dst.InjectAt(10, k, 0, func(a any) { order = append(order, "injected") }, nil)
	})
	src.Run()
	dst.Run()

	want := []string{"local-a", "local-b", "injected"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestSpliceKeyOrdinals: successive SpliceKey calls inside one firing
// share the firing event's key and return increasing sub ordinals, so
// splices injected out of order still fire in call order.
func TestSpliceKeyOrdinals(t *testing.T) {
	src, dst := New(), New()
	var order []int
	src.At(7, func() {
		k1, s1 := src.SpliceKey()
		k2, s2 := src.SpliceKey()
		if k1 != k2 {
			t.Fatalf("splice keys differ within one firing: %+v vs %+v", k1, k2)
		}
		if s2 != s1+1 {
			t.Fatalf("splice ordinals %d, %d; want consecutive", s1, s2)
		}
		// Inject in reverse: the sub ordinal must restore call order.
		dst.InjectAt(7, k2, s2, func(a any) { order = append(order, 2) }, nil)
		dst.InjectAt(7, k1, s1, func(a any) { order = append(order, 1) }, nil)
	})
	src.Run()
	dst.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("splices fired in order %v, want [1 2]", order)
	}
}

// TestEventKeyConsumesSeq: keys allocated for deferred cross-engine work
// claim a fresh local seq, so a later local event can never tie with one.
func TestEventKeyConsumesSeq(t *testing.T) {
	e := New()
	k1 := e.EventKey()
	k2 := e.EventKey()
	if k2.Seq != k1.Seq+1 {
		t.Fatalf("EventKey seqs %d, %d; want consecutive", k1.Seq, k2.Seq)
	}
}

// TestRunWindowBoundsAndTiling: RunWindow fires only events at <= the
// deadline, tiles the clock to the deadline, and leaves later events
// queued for the next window.
func TestRunWindowBoundsAndTiling(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{5, 10, 15} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	if got := e.RunWindow(10); got != 10 {
		t.Fatalf("RunWindow(10) returned %d, want 10", got)
	}
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 10 {
		t.Fatalf("window [0,10] fired %v, want [5 10]", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("%d events pending after window, want 1", e.Pending())
	}
	e.RunWindow(20)
	if len(fired) != 3 || fired[2] != 15 {
		t.Fatalf("second window fired %v, want [5 10 15]", fired)
	}
}

// TestRunWindowSkipsDrainHook: emptying the queue inside a window is not
// quiescence — only Run/RunUntil (or an explicit FireDrain) may report a
// settled simulation, because other engines may still hold work.
func TestRunWindowSkipsDrainHook(t *testing.T) {
	e := New()
	drains := 0
	e.SetOnDrain(func() { drains++ })
	e.At(3, func() {})
	e.RunWindow(100)
	if drains != 0 {
		t.Fatal("RunWindow fired the drain hook")
	}
	e.FireDrain()
	if drains != 1 {
		t.Fatalf("FireDrain ran the hook %d times, want 1", drains)
	}
}

// TestDriverDelegation: with a driver installed, Run and RunUntil
// delegate — passing boundedness and deadline through — and Run clears a
// previous Stop before delegating.
func TestDriverDelegation(t *testing.T) {
	e := New()
	var gotDeadline Time
	var gotBounded, sawStopped bool
	e.SetDriver(func(deadline Time, bounded bool) Time {
		gotDeadline, gotBounded = deadline, bounded
		sawStopped = e.Stopped()
		return e.Now()
	})
	e.Stop()
	e.Run()
	if gotBounded || sawStopped {
		t.Fatalf("Run delegated with bounded=%v stopped=%v, want false/false", gotBounded, sawStopped)
	}
	e.RunUntil(42)
	if !gotBounded || gotDeadline != 42 {
		t.Fatalf("RunUntil delegated deadline=%d bounded=%v, want 42/true", gotDeadline, gotBounded)
	}
}

// TestNextAt reports the earliest pending time without consuming it.
func TestNextAt(t *testing.T) {
	e := New()
	if _, ok := e.NextAt(); ok {
		t.Fatal("NextAt reported an event on an empty queue")
	}
	e.At(9, func() {})
	e.At(4, func() {})
	at, ok := e.NextAt()
	if !ok || at != 4 {
		t.Fatalf("NextAt = %d,%v; want 4,true", at, ok)
	}
	if e.Pending() != 2 {
		t.Fatal("NextAt consumed an event")
	}
}

// TestInjectAtPastPanics: like At/CallAt, injecting into the past is a
// causality bug and must fail loudly.
func TestInjectAtPastPanics(t *testing.T) {
	e := New()
	e.At(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("InjectAt into the past did not panic")
		}
	}()
	e.InjectAt(5, Key{}, 0, func(a any) {}, nil)
}

// TestFiringKey: inside a handler FiringKey is the firing event's own key
// (the one SpliceKey hands out), and it tracks SetFiringComp.
func TestFiringKey(t *testing.T) {
	e := New()
	e.At(3, func() {
		e.At(8, func() {
			k := e.FiringKey()
			sk, _ := e.SpliceKey()
			if k != sk {
				t.Errorf("FiringKey %+v, SpliceKey %+v", k, sk)
			}
			if k.Ctime != 3 || k.Gen2 != 0 {
				t.Errorf("FiringKey %+v, want ctime 3 gen2 0", k)
			}
			e.SetFiringComp(7)
			if c := e.FiringKey().Comp; c != 7 {
				t.Errorf("FiringKey comp %d after SetFiringComp(7)", c)
			}
		})
	})
	e.Run()
}
