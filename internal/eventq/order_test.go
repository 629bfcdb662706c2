package eventq

import (
	"math/rand"
	"testing"
)

// refEvent is one pending event of the reference model: its firing
// cycle, its full ordering key, its scheduling order, and how many events
// had fired when it was scheduled.
type refEvent struct {
	at    Time
	k     key
	id    int
	since int
}

func (r refEvent) before(o refEvent) bool {
	if r.at != o.at {
		return r.at < o.at
	}
	if r.k != o.k {
		return r.k.less(&o.k)
	}
	return r.id < o.id
}

// orderHarness replays a byte-decoded operation stream against dst, an
// engine under test, and against ref, a plain list ordered by linear scan
// for the six-field key (scheduling order breaking exact ties). src is a
// second engine that mints EventKey/SpliceKey keys for injection into dst.
type orderHarness struct {
	t        *testing.T
	data     []byte
	pos      int
	dst, src *Engine
	ref      []refEvent
	ids      int
	budget   int      // events handlers may still schedule
	keys     []refKey // keys minted on src, not yet injected
	// cycle and fired are the cycle of the last fired event and the events
	// fired in it so far, in firing order; nfired counts all fired events.
	cycle  Time
	fired  []firedEvent
	nfired int
}

// firedEvent is one fired event: its key, and its place in the firing order.
type firedEvent struct {
	k key
	n int
}

type refKey struct {
	k   Key
	sub uint32
}

func (h *orderHarness) byte() byte {
	if h.pos >= len(h.data) {
		return 0
	}
	b := h.data[h.pos]
	h.pos++
	return b
}

// firing is the argument an event's handler receives: the harness and
// the event's id.
type firing struct {
	h  *orderHarness
	id int
}

func harnessFire(a any) {
	f := a.(*firing)
	f.h.fire(f.id)
}

// fire checks that the engine fired the event the reference expects, then
// runs the event's byte-decoded action: schedule up to three local
// children and optionally stop the run.
func (h *orderHarness) fire(id int) {
	h.t.Helper()
	if len(h.ref) == 0 {
		h.t.Fatalf("event %d fired, but the reference has nothing pending", id)
	}
	m := 0
	for i := range h.ref {
		if h.ref[i].before(h.ref[m]) {
			m = i
		}
	}
	want := h.ref[m]
	h.ref[m] = h.ref[len(h.ref)-1]
	h.ref = h.ref[:len(h.ref)-1]
	if id != want.id {
		h.t.Fatalf("fired event %d, want %d (at %d key %+v)", id, want.id, want.at, want.k)
	}
	if h.dst.Now() != want.at {
		h.t.Fatalf("event %d fired at Now %d, want %d", id, h.dst.Now(), want.at)
	}
	h.checkBefore(id, want)
	act := h.byte()
	for n := int(act & 3); n > 0 && h.budget > 0; n-- {
		h.budget--
		h.local(act&4 != 0, Time(h.byte()%8))
	}
	if act&8 != 0 {
		h.dst.Stop()
	}
}

// checkBefore checks the exported order against the firing order and
// the queue's internal one. The event just fired, ev, must not sort
// before any event fired earlier in its cycle while ev was pending, by
// Before or by key.less, and must sort after each whose exported key
// differs from its own by both (keys that differ only in the splice
// ordinal are equal to Before). An event fired before ev was scheduled
// may sort anywhere.
func (h *orderHarness) checkBefore(id int, ev refEvent) {
	h.t.Helper()
	k, fk := ev.k, h.dst.FiringKey()
	if fk != exported(k) {
		h.t.Fatalf("event %d: FiringKey %+v, want the key it was scheduled with %+v", id, fk, k)
	}
	if now := h.dst.Now(); now != h.cycle || len(h.fired) == 0 {
		h.cycle, h.fired = now, h.fired[:0]
	}
	for i := range h.fired {
		e := &h.fired[i].k
		if h.fired[i].n < ev.since {
			continue
		}
		ek := exported(*e)
		distinct := ek != fk
		if fk.Before(&ek) || k.less(e) || ek.Before(&fk) != distinct || (distinct && !e.less(&k)) {
			h.t.Fatalf("event %d keyed %+v fired after %+v in cycle %d: Before(earlier, it) = %v, Before(it, earlier) = %v, less(earlier, it) = %v",
				id, k, *e, h.cycle, ek.Before(&fk), fk.Before(&ek), e.less(&k))
		}
	}
	h.fired = append(h.fired, firedEvent{k: k, n: h.nfired})
	h.nfired++
}

// exported is k without its splice ordinal.
func exported(k key) Key { return Key{Ctime: k.ctime, Gen2: k.gen2, Comp: k.comp, Seq: k.seq} }

// checkReadKey checks that an unstopped engine's ReadKey sorts after
// every event fired in the current cycle, and a stopped one's is the
// stopping event's key.
func (h *orderHarness) checkReadKey(op string) {
	h.t.Helper()
	rk := h.dst.ReadKey()
	if h.dst.Stopped() {
		if rk != h.dst.FiringKey() {
			h.t.Fatalf("after %s: stopped ReadKey %+v, want the stopping event's %+v", op, rk, h.dst.FiringKey())
		}
		return
	}
	for i := range h.fired {
		if ek := exported(h.fired[i].k); !ek.Before(&rk) {
			h.t.Fatalf("after %s: ReadKey %+v does not sort after fired %+v", op, rk, ek)
		}
	}
}

// local schedules one dst event delay cycles ahead, through At or Call.
func (h *orderHarness) local(viaAt bool, delay Time) {
	e := h.dst
	ev := refEvent{at: e.Now() + delay, id: h.ids, since: h.nfired,
		k: key{ctime: e.Now(), gen2: e.fireCtime, comp: e.fireComp, seq: e.seq + 1}}
	h.ids++
	h.ref = append(h.ref, ev)
	if viaAt {
		e.At(ev.at, func() { h.fire(ev.id) })
	} else {
		e.Call(delay, harnessFire, &firing{h, ev.id})
	}
}

// inject moves one minted key, chosen by the stream so keys arrive in
// shuffled order, into dst delay cycles ahead.
func (h *orderHarness) inject(delay Time) {
	if len(h.keys) == 0 {
		return
	}
	i := int(h.byte()) % len(h.keys)
	rk := h.keys[i]
	h.keys = append(h.keys[:i], h.keys[i+1:]...)
	ev := refEvent{at: h.dst.Now() + delay, id: h.ids, since: h.nfired,
		k: key{ctime: rk.k.Ctime, gen2: rk.k.Gen2, comp: rk.k.Comp, seq: rk.k.Seq, sub: rk.sub}}
	h.ids++
	h.ref = append(h.ref, ev)
	h.dst.InjectAt(ev.at, rk.k, rk.sub, harnessFire, &firing{h, ev.id})
}

// mint schedules a src event delay cycles after the later of the two
// clocks (so minted creation times interleave with dst's) and steps src
// once. The event that fires mints up to three keys for later injection
// and may schedule a follow-up src event, which varies the genealogy of
// later keys.
func (h *orderHarness) mint(delay Time) {
	act := h.byte()
	at := max(h.src.Now(), h.dst.Now()) + delay
	var minter Handler
	minter = func() {
		if act&8 != 0 {
			h.src.Schedule(Time(act>>4)%4, minter)
		}
		for n := int(act&3) + 1; n > 0; n-- {
			if act&4 != 0 {
				k, sub := h.src.SpliceKey()
				h.keys = append(h.keys, refKey{k, sub})
			} else {
				h.keys = append(h.keys, refKey{k: h.src.EventKey()})
			}
			act = act>>1 | act<<7
		}
	}
	h.src.At(at, minter)
	h.src.Step()
}

// check compares the engine's pending set with the reference.
func (h *orderHarness) check(op string) {
	h.t.Helper()
	if h.dst.Pending() != len(h.ref) {
		h.t.Fatalf("after %s: Pending = %d, reference holds %d", op, h.dst.Pending(), len(h.ref))
	}
	at, ok := h.dst.NextAt()
	if ok != (len(h.ref) > 0) {
		h.t.Fatalf("after %s: NextAt ok = %v with %d pending", op, ok, len(h.ref))
	}
	for _, ev := range h.ref {
		if ev.at < at {
			h.t.Fatalf("after %s: NextAt = %d, but event %d is pending at %d", op, at, ev.id, ev.at)
		}
	}
}

// checkDeadline verifies an unstopped bounded run left nothing due.
func (h *orderHarness) checkDeadline(op string, deadline Time) {
	h.t.Helper()
	if h.dst.Stopped() {
		return
	}
	for _, ev := range h.ref {
		if ev.at <= deadline {
			h.t.Fatalf("after %s(%d): event %d at %d still pending", op, deadline, ev.id, ev.at)
		}
	}
}

func checkQueueOrder(t *testing.T, data []byte) {
	h := &orderHarness{t: t, data: data, dst: New(), src: New(), budget: 512}
	h.src.SetFiringComp(1)
	for h.pos < len(h.data) {
		op := h.byte()
		d := Time(op >> 4)
		switch op % 10 {
		case 0, 1:
			if h.budget > 0 {
				h.budget--
				h.local(op%10 == 0, d%8)
			}
		case 2:
			h.mint(d % 4)
		case 3, 4:
			h.inject(d % 8)
		case 5:
			h.dst.Step()
		case 6:
			deadline := h.dst.Now() + d
			h.dst.RunUntil(deadline)
			h.checkDeadline("RunUntil", deadline)
		case 7:
			deadline := h.dst.Now() + d
			h.dst.RunWindow(deadline)
			h.checkDeadline("RunWindow", deadline)
		case 8:
			h.dst.Stop()
		case 9:
			h.dst.Run()
		}
		h.check("op")
		h.checkReadKey("op")
	}
	for h.dst.Pending() > 0 {
		h.dst.Run()
	}
	h.check("drain")
}

// FuzzQueueOrder is the ordering differential test: a random mix of
// At/Call/InjectAt (keys minted by a second engine and injected in
// shuffled order, so they land below bucket tails), Step, RunUntil,
// RunWindow, Stop and NextAt must fire events exactly in the order of a
// reference that sorts the same events by the six-field key. Key.Before
// must agree with that order on every pair of events fired in one cycle,
// and ReadKey must sort after all of them unless a Stop froze the run.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0x10, 0x21, 0x02, 0x03, 0x04, 0x05, 0x06})
	f.Fuzz(checkQueueOrder)
}

// TestQueueOrderRandom runs the differential check over random streams
// on every plain test run, beyond the committed fuzz corpus.
func TestQueueOrderRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		data := make([]byte, 64+rng.Intn(512))
		rng.Read(data)
		checkQueueOrder(t, data)
	}
}

// TestCycleTableMatchesMap drives the cycle table through random insert
// and delete churn, with cycles from a narrow range (long probe runs that
// wrap the table) and a wide one, and checks every lookup against a Go map.
func TestCycleTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, span := range []int64{64, 1 << 40} {
		var tab cycleTable
		ref := map[Time]int32{}
		var live []Time
		for i := 1; i <= 100000; i++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				j := rng.Intn(len(live))
				tab.del(live[j])
				delete(ref, live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			} else if at := Time(rng.Int63n(span)); ref[at] == 0 {
				tab.put(cycle{at: at, b: int32(i)})
				ref[at] = int32(i)
				live = append(live, at)
			}
			probe := Time(rng.Int63n(span))
			if len(live) > 0 && rng.Intn(2) == 0 {
				probe = live[rng.Intn(len(live))]
			}
			if got, want := tab.get(probe), ref[probe]; got != want {
				t.Fatalf("span %d step %d: get(%d) = %d, want %d", span, i, probe, got, want)
			}
			if tab.n != len(ref) {
				t.Fatalf("span %d step %d: table holds %d, want %d", span, i, tab.n, len(ref))
			}
		}
	}
}
