// Package eventq implements the deterministic discrete-event engine that
// drives every layer of the simulator (workload, system, and network).
//
// ASTRA-SIM uses an event-driven execution model: the system layer owns a
// single event queue and exposes it upward to the workload layer and
// downward to the network layer. Time is measured in integer cycles
// (1 cycle = 1 ns at the default 1 GHz clock).
//
// # Ordering contract
//
// Events fire in ascending order of a six-field key
//
//	(at, ctime, gen2, comp, seq, sub)
//
// where at is the firing cycle, ctime is the cycle the event was created,
// gen2 is the creation cycle of the event that created it (one more level
// of genealogy), comp is the component the event belongs to (0 for the
// system layer, 1..C for the packet network's link-plan components — see
// internal/noc), seq is a per-engine creation counter, and sub
// disambiguates multiple cross-engine injections made by one handler.
//
// Even on a single engine this is not plain (at, creation order). An
// event scheduled with Call, CallAt, Schedule or At takes ctime = now,
// gen2 = the firing event's ctime and the firing context's comp, and sub
// 0; the pair (ctime, gen2) never decreases in creation order. comp is not
// constant: a serial packet network stamps each link's component for the
// duration of a send (SetFiringComp), and every event inherits its
// creator's. So two such events of one cycle fire in creation order
// unless they tie on (ctime, gen2) and differ in comp, where the lower
// component fires first. A key built with KeysFrom or passed to InjectAt
// (packet trains, multi-hop arrivals) may name a creation cycle other
// than now, and sorts by the key alone. The same total order is
// reproduced when events are split across per-partition engines: a
// cross-engine injection carries its creator's key (InjectAt) and
// therefore sorts against the target engine's local events exactly where
// the serial run would have fired it. That is the mechanism behind the
// pdes determinism guarantee — results are byte-identical at any worker
// count, and identical to the serial engine.
//
// This package owns the order. Key.Before compares two keys of one cycle,
// Engine.KeysFrom builds the key of an event created at a given cycle by
// an event created at another, and Engine.ReadKey is the key a read from
// outside any handler sees lazily kept state from. A model that stands
// for events it never schedules (noc's packet trains and arrival
// records) uses these rather than comparing or building keys itself.
//
// # Concurrency contract
//
// An Engine is not safe for concurrent use: each engine is owned by
// exactly one goroutine at a time. Parallel sweeps run one independent
// engine per run (internal/parallel); intra-run parallelism
// (internal/pdes) hands disjoint engines to pool workers for one bounded
// window at a time, with all cross-engine traffic (InjectAt) performed
// between windows under a barrier.
//
// # Queue structure
//
// The queue is time-bucketed. Pending events are grouped by firing
// cycle: a small binary min-heap orders the distinct pending cycles, and
// each cycle owns a bucket — a doubly linked list of its events in key
// order. Each event is written once into its arena slot and read once
// from it. Scheduling takes a slot, writes the key and payload into it,
// and links it into the bucket for its cycle, found through a one-entry
// cache of the last bucket used, then a hash table from cycle to bucket.
// The link appends: within a cycle, key order is mostly creation order,
// so the append is almost always sorted. A key injected with InjectAt, or
// one that ties the tail on (ctime, gen2) with a lower comp, sorts below
// the bucket's tail; such an event is placed by walking back from the
// tail, so the six-field order holds exactly on every engine. Keys
// injected ahead of their creation cycle, like the fast backend's
// multi-hop arrivals, can crowd a cycle and land far below its tail,
// mostly next to the previous such key; so a walk that gets long resumes
// forward from the bucket's finger, the event the last long placement
// inserted. Events that compare equal (which valid keys never do) fire
// in scheduling order. Firing reads the earliest bucket's head slot in
// place and frees the slot before the handler runs, so the handler's
// first schedule reuses it.
//
// Events live in a paged slot arena: fixed-size pages that are never
// copied or released, plus a free list that fired events return their
// slots to, so the steady-state Schedule→Step cycle performs zero
// allocations. Hot callers that would otherwise allocate a closure per
// event can use Call / CallAt, which carry a static function plus one
// pointer-shaped argument inline in the event; Schedule / At store the
// Handler itself as the argument of a static trampoline. One function,
// put, writes every slot, and a slot is one 64-byte cache line.
package eventq

import (
	"fmt"
)

// Time is a simulation timestamp in cycles.
type Time uint64

// Handler is the callback invoked when an event fires. It runs at the
// event's scheduled time; Engine.Now reports that time during the call.
type Handler func()

// CallFunc is the allocation-free event callback form: a static function
// receiving the argument captured at schedule time. The argument is
// pointer-shaped (a *T or a func value), so storing it in the event does
// not allocate.
type CallFunc func(a any)

// callHandler is the trampoline Schedule/At events fire through: the
// Handler rides in a (a func value in an interface does not allocate).
func callHandler(a any) { a.(Handler)() }

// key is an event's position among the events of its firing cycle: the
// (ctime, gen2, comp, seq, sub) part of the ordering key documented in
// the package comment.
type key struct {
	ctime Time   // creation cycle
	gen2  Time   // creator's creation cycle
	seq   uint64 // per-engine creation order
	comp  uint32 // owning component (0 = main)
	sub   uint32 // per-handler cross-engine injection order
}

// less is the queue's order: Key.Before, then sub. It takes both keys
// by pointer: link compares keys in their arena slots, and by value each
// compare would copy them to the stack first. TestQueueOrderRandom checks
// that it agrees with Before on every pair of same-cycle events.
func (k *key) less(o *key) bool {
	if k.ctime != o.ctime {
		return k.ctime < o.ctime
	}
	if k.gen2 != o.gen2 {
		return k.gen2 < o.gen2
	}
	if k.comp != o.comp {
		return k.comp < o.comp
	}
	if k.seq != o.seq {
		return k.seq < o.seq
	}
	return k.sub < o.sub
}

// slot holds one pending event in the arena. It stores no firing cycle:
// the bucket holding it knows that. next/prev link the bucket's events in
// key order (0 = none; the head's prev is not maintained); a free slot's
// next links the free list. It is 64 bytes (TestSlotSize).
type slot struct {
	key
	fn         CallFunc
	a          any
	next, prev int32
}

// Slot ids index a paged arena. Pages are fixed-size and never copied, so
// growing the arena allocates one page and moves nothing.
const (
	pageBits = 6
	pageSize = 1 << pageBits
)

// bucket lists the pending events of one firing cycle.
type bucket struct {
	at         Time
	head, tail int32 // slot ids; a free bucket's head links the free list
	finger     int32 // the last event placed far below the tail (0 = none)
}

// cycle pairs a firing cycle with its bucket: an entry of the
// distinct-cycle heap and of the cycle table.
type cycle struct {
	at Time
	b  int32 // bucket index
}

// queue is the time-bucketed event queue described in the package
// comment. Slot id 0 and bucket index 0 are reserved as "none", so the
// zero value is an empty queue.
type queue struct {
	pages []*[pageSize]slot
	used  int32 // slot ids handed out so far
	free  int32 // head of the free-slot list
	n     int   // pending events

	buckets []bucket
	freeB   int32      // head of the free-bucket list
	last    int32      // bucket most recently scheduled into
	byAt    cycleTable // firing cycle -> bucket
	cycles  []cycle    // binary min-heap of distinct pending cycles
}

func (q *queue) slot(id int32) *slot { return &q.pages[id>>pageBits][id&(pageSize-1)] }

// alloc takes a slot from the free list, or the next unused arena slot.
func (q *queue) alloc() int32 {
	if id := q.free; id != 0 {
		q.free = q.slot(id).next
		return id
	}
	if q.used&(pageSize-1) == 0 {
		q.pages = append(q.pages, new([pageSize]slot))
		if q.used == 0 {
			q.used = 1
		}
	}
	id := q.used
	q.used++
	return id
}

// bucket returns the index of the bucket for cycle at, creating it (and
// its distinct-cycle heap entry) if no event is pending at that cycle.
func (q *queue) bucket(at Time) int32 {
	if b := q.last; b != 0 && q.buckets[b].at == at {
		return b
	}
	b := q.byAt.get(at)
	if b == 0 {
		if b = q.freeB; b != 0 {
			q.freeB = q.buckets[b].head
		} else {
			if len(q.buckets) == 0 {
				q.buckets = append(q.buckets, bucket{}) // index 0 is "none"
			}
			b = int32(len(q.buckets))
			q.buckets = append(q.buckets, bucket{})
		}
		q.buckets[b] = bucket{at: at}
		q.byAt.put(cycle{at: at, b: b})
		q.pushCycle(cycle{at: at, b: b})
	}
	q.last = b
	return b
}

// fingerWalk is how far link walks back from a bucket's tail before it
// tries the bucket's finger. Most out-of-order keys (packet trains) land
// within a step or two of the tail; only crowded cycles walk further.
const fingerWalk = 4

// link places slot id, whose key and payload are already written, among
// the events of cycle at in key order.
func (q *queue) link(at Time, id int32, s *slot) {
	q.n++
	bk := &q.buckets[q.bucket(at)]
	t := bk.tail
	if t == 0 {
		s.next, s.prev = 0, 0
		bk.head, bk.tail = id, id
		return
	}
	k := &s.key
	ts := q.slot(t)
	if !k.less(&ts.key) { // the common case: sorts after the tail
		s.next, s.prev = 0, t
		ts.next = id
		bk.tail = id
		return
	}
	// Find after, the last event that sorts at or before k (0: none), by
	// walking back from the tail. After fingerWalk steps, search forward
	// from the finger instead when it sorts at or before k: it then lies
	// before t, and t sorts after k, so the search stops at t at the
	// latest. A placement that walks that far becomes the finger.
	var after int32
	steps := 0
	for ; t != bk.head; steps++ {
		if f := bk.finger; steps == fingerWalk && f != 0 && !k.less(&q.slot(f).key) {
			after = f
			for n := q.slot(f).next; !k.less(&q.slot(n).key); n = q.slot(n).next {
				after = n
			}
			break
		}
		t = q.slot(t).prev
		if !k.less(&q.slot(t).key) {
			after = t
			break
		}
	}
	if steps >= fingerWalk {
		bk.finger = id
	}
	if after == 0 {
		s.next, s.prev = bk.head, 0
		q.slot(bk.head).prev = id
		bk.head = id
		return
	}
	as := q.slot(after)
	s.next, s.prev = as.next, after
	q.slot(as.next).prev = id
	as.next = id
}

// dropEarliest releases the emptied bucket of the earliest cycle.
func (q *queue) dropEarliest() {
	top := q.cycles[0]
	q.byAt.del(top.at)
	q.buckets[top.b] = bucket{head: q.freeB}
	q.freeB = top.b
	if q.last == top.b {
		q.last = 0
	}
	n := len(q.cycles) - 1
	c := q.cycles[n]
	q.cycles = q.cycles[:n]
	if n == 0 {
		return
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q.cycles[r].at < q.cycles[child].at {
			child = r
		}
		if c.at <= q.cycles[child].at {
			break
		}
		q.cycles[i] = q.cycles[child]
		i = child
	}
	q.cycles[i] = c
}

// pushCycle adds c to the distinct-cycle heap.
func (q *queue) pushCycle(c cycle) {
	i := len(q.cycles)
	q.cycles = append(q.cycles, c)
	for i > 0 {
		p := (i - 1) / 2
		if q.cycles[p].at <= c.at {
			break
		}
		q.cycles[i] = q.cycles[p]
		i = p
	}
	q.cycles[i] = c
}

// cycleTable maps each pending firing cycle to its bucket. It is an
// open-addressing hash table with linear probing and backward-shift
// deletion: unlike a Go map under insert/delete churn it leaves no
// tombstones, so its size stays below four times the peak number of
// distinct pending cycles. An entry with b == 0 is empty.
type cycleTable struct {
	slots []cycle // power-of-two length
	shift uint    // 64 - log2(len(slots))
	n     int
}

// home is at's preferred slot (Fibonacci hashing).
func (t *cycleTable) home(at Time) int { return int(uint64(at) * 0x9E3779B97F4A7C15 >> t.shift) }

// get returns at's bucket, or 0 if no event is pending at at.
func (t *cycleTable) get(at Time) int32 {
	if len(t.slots) == 0 {
		return 0
	}
	mask := len(t.slots) - 1
	for i := t.home(at); ; i = (i + 1) & mask {
		if s := t.slots[i]; s.b == 0 || s.at == at {
			return s.b
		}
	}
}

// put inserts c, whose cycle must not be present, keeping the load at
// most one half.
func (t *cycleTable) put(c cycle) {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		size := max(16, 2*len(old))
		t.slots = make([]cycle, size)
		t.shift = 64
		for ; size > 1; size >>= 1 {
			t.shift--
		}
		t.n = 0
		for _, o := range old {
			if o.b != 0 {
				t.put(o)
			}
		}
	}
	mask := len(t.slots) - 1
	i := t.home(c.at)
	for t.slots[i].b != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = c
	t.n++
}

// del removes at, which must be present, and shifts later entries of its
// probe run back so that lookups never need tombstones.
func (t *cycleTable) del(at Time) {
	mask := len(t.slots) - 1
	i := t.home(at)
	for t.slots[i].at != at || t.slots[i].b == 0 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.slots[j].b != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if h := t.home(t.slots[j].at); (j-h)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = cycle{}
	t.n--
}

// next reports the earliest pending cycle, or false if the queue is empty.
func (q *queue) next() (Time, bool) {
	if len(q.cycles) == 0 {
		return 0, false
	}
	return q.cycles[0].at, true
}

// Key is an event's deterministic position among same-cycle events: the
// (ctime, gen2, comp, seq) portion of the ordering key. It is the currency
// of cross-engine scheduling: capturing a key on one engine (EventKey /
// SpliceKey) and injecting with it on another (InjectAt) places the event
// in the target's total order exactly where a single serial engine would
// have fired it.
type Key struct {
	Ctime Time
	Gen2  Time
	Comp  uint32
	Seq   uint64
}

// Before reports whether an event keyed k fires before one keyed o when
// both fire in the same cycle. It is the one definition of that order:
// the queue's own (key.less) only adds the splice ordinal, and a model
// that stands in for events it never schedules (noc's packet trains and
// arrival records) compares their keys with this. A key whose Seq is the
// maximum sorts after every event with the same (Ctime, Gen2, Comp).
func (k *Key) Before(o *Key) bool {
	if k.Ctime != o.Ctime {
		return k.Ctime < o.Ctime
	}
	if k.Gen2 != o.Gen2 {
		return k.Gen2 < o.Gen2
	}
	if k.Comp != o.Comp {
		return k.Comp < o.Comp
	}
	return k.Seq < o.Seq
}

// DriverFunc replaces the engine's built-in run loop (see SetDriver).
// It must fire all pending events — bounded by deadline when bounded is
// true, to completion otherwise — and return the final simulation time.
type DriverFunc func(deadline Time, bounded bool) Time

// Engine is a discrete-event simulation engine. The zero value is ready to
// use. Engine is not safe for concurrent use; see the package comment for
// the single-owner concurrency contract (parallel sweeps run one
// independent Engine per goroutine, the pdes runner hands engines to
// workers one window at a time).
type Engine struct {
	now     Time
	seq     uint64
	q       queue
	fired   uint64
	stopped bool
	// Firing context: key of the event currently (or most recently)
	// executing, used to stamp genealogy onto the events it creates, plus
	// the running sub counter for cross-engine splices it emits.
	fireCtime Time
	fireGen2  Time
	fireComp  uint32
	fireSeq   uint64
	fireSub   uint32
	// onDrain, when non-nil, runs whenever a Run/RunUntil call empties
	// the queue (see SetOnDrain).
	onDrain func()
	// driver, when non-nil, replaces the Run/RunUntil loop (see SetDriver).
	driver DriverFunc
	// err is the error the run was aborted with (Abort); nil otherwise.
	err error
}

// New returns a fresh engine at time zero.
func New() *Engine { return &Engine{} }

// Now reports the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of events waiting to fire.
func (e *Engine) Pending() int { return e.q.n }

// Fired reports how many events have been executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Schedule enqueues h to fire delay cycles from now.
func (e *Engine) Schedule(delay Time, h Handler) {
	e.At(e.now+delay, h)
}

// At enqueues h to fire at absolute time at. Scheduling in the past is a
// programming error and panics: it would silently corrupt causality.
func (e *Engine) At(at Time, h Handler) {
	if h == nil {
		panic("eventq: nil handler")
	}
	e.put(at, nil, 0, callHandler, h)
}

// Call enqueues fn(a) to fire delay cycles from now. Unlike Schedule it
// needs no closure: fn is a static function and a is stored inline, so
// the hot per-packet paths of the network layer schedule events without
// allocating.
func (e *Engine) Call(delay Time, fn CallFunc, a any) {
	e.put(e.now+delay, nil, 0, fn, a)
}

// CallAt enqueues fn(a) at absolute time at. See Call.
func (e *Engine) CallAt(at Time, fn CallFunc, a any) {
	e.put(at, nil, 0, fn, a)
}

// put, the one writer of every slot, writes the event fn(a) into a free
// slot and links it into cycle at. A nil k keys a local event from the
// firing context with the next seq; otherwise k and sub are InjectAt's.
// Scheduling in the past panics. Every schedule calls put directly, so
// each inlines into its caller and stays one call deep.
func (e *Engine) put(at Time, k *Key, sub uint32, fn CallFunc, a any) {
	if fn == nil {
		panic("eventq: nil call func")
	}
	if at < e.now {
		panic(fmt.Sprintf("eventq: scheduling into the past (at=%d now=%d)", at, e.now))
	}
	id := e.q.alloc()
	s := e.q.slot(id)
	if k == nil {
		e.seq++
		s.key = key{ctime: e.now, gen2: e.fireCtime, comp: e.fireComp, seq: e.seq}
	} else {
		s.key = key{ctime: k.Ctime, gen2: k.Gen2, comp: k.Comp, seq: k.Seq, sub: sub}
	}
	s.fn, s.a = fn, a
	e.q.link(at, id, s)
}

// EventKey allocates the ordering key a locally created event would
// receive right now: creation time = Now, genealogy from the firing
// context, and a freshly consumed seq. Used to label work that will be
// injected into another engine later (e.g. a shard buffering a delivery
// for the main engine) so it sorts exactly as a locally scheduled event
// would have.
func (e *Engine) EventKey() Key { return e.KeysFrom(e.now, e.fireCtime, e.fireComp, 1) }

// KeysFrom allocates count keys at once, as count EventKey calls would,
// but for events created at ctime by an event created at gen2, on
// component comp. It returns the first; the others differ from it only
// in Seq, which grows by one per key. It is the one place a key is built
// from a genealogy: a model that stands for events it never schedules,
// or schedules ahead of their creation (noc's packet trains and arrival
// records), keys them with it, so each sorts where the event would have.
func (e *Engine) KeysFrom(ctime, gen2 Time, comp uint32, count uint64) Key {
	k := Key{Ctime: ctime, Gen2: gen2, Comp: comp, Seq: e.seq + 1}
	e.seq += count
	return k
}

// SpliceKey returns the key of the currently firing event plus the next
// splice ordinal. A handler that hands work to another engine mid-flight
// (the main engine deferring packetization to a link shard) injects it
// under its own key: the work then sorts against the target engine's
// events exactly where the serial engine would have executed it inline.
// Successive calls within one firing return increasing ordinals.
func (e *Engine) SpliceKey() (Key, uint32) {
	k := Key{Ctime: e.fireCtime, Gen2: e.fireGen2, Comp: e.fireComp, Seq: e.fireSeq}
	sub := e.fireSub
	e.fireSub++
	return k, sub
}

// FiringKey returns the key of the currently firing event, with the
// component as the firing context holds it (see SetFiringComp). A handler
// that models events it never schedules compares their keys with this one
// to tell whether they would already have fired in the current cycle.
func (e *Engine) FiringKey() Key {
	return Key{Ctime: e.fireCtime, Gen2: e.fireGen2, Comp: e.fireComp, Seq: e.fireSeq}
}

// ReadKey is the key a read of lazily kept state (noc's trains and
// arrival records) from outside any handler sees that state from. An
// unstopped Run or RunUntil has fired every event up to now, so it sorts
// after all of them; when Stop froze the run inside a cycle, it is the
// stopping event's.
func (e *Engine) ReadKey() Key {
	if e.stopped {
		return e.FiringKey()
	}
	return Key{Ctime: ^Time(0)}
}

// InjectAt enqueues fn(a) at absolute time at under an explicit key —
// the cross-engine scheduling primitive. Unlike CallAt it does not consume
// a local seq: the event's position is entirely determined by the caller's
// key, which must originate from EventKey, KeysFrom or SpliceKey on the
// creating engine. The caller must own both engines (pdes injects only
// between windows, under the barrier).
func (e *Engine) InjectAt(at Time, k Key, sub uint32, fn CallFunc, a any) {
	e.put(at, &k, sub, fn, a)
}

// SetFiringComp reassigns the firing context's component. A handler that
// acts on behalf of a different component than the event that invoked it
// (a shard's inbox event, injected under the main engine's component 0,
// packetizing onto a component-c link) calls this before creating events
// so they — and transitively everything they create — carry the right
// component in their ordering keys.
func (e *Engine) SetFiringComp(c uint32) { e.fireComp = c }

// FiringComp reports the firing context's current component, so a caller
// that stamps a temporary component with SetFiringComp can restore the
// previous one afterwards.
func (e *Engine) FiringComp() uint32 { return e.fireComp }

// Step fires the single earliest event and reports whether one fired.
func (e *Engine) Step() bool {
	if e.q.n == 0 {
		return false
	}
	// Read the earliest bucket's head in place, then free its slot before
	// the handler runs: the free list is LIFO, so the handler's first
	// schedule reuses the slot that is still in cache.
	q := &e.q
	top := q.cycles[0]
	bk := &q.buckets[top.b]
	id := bk.head
	s := q.slot(id)
	fn, a := s.fn, s.a
	e.now = top.at
	e.fired++
	e.fireCtime, e.fireGen2, e.fireComp, e.fireSeq, e.fireSub = s.ctime, s.gen2, s.comp, s.seq, 0
	if bk.finger == id {
		bk.finger = 0
	}
	if bk.head = s.next; bk.head == 0 {
		q.dropEarliest()
	}
	// Clear the vacated slot so the arena does not retain the callback
	// (and whatever it captures) after the event fired.
	s.fn, s.a = nil, nil
	s.next = q.free
	q.free = id
	q.n--
	fn(a)
	return true
}

// SetOnDrain registers fn to run every time a Run or RunUntil call leaves
// the queue empty (the simulation reached quiescence). At that moment no
// event is in flight, so fn observes a settled simulation state — the
// audit layer's quiescence checks hang off this hook. fn must not
// schedule new events; nil clears the hook.
func (e *Engine) SetOnDrain(fn func()) { e.onDrain = fn }

// drained fires the drain hook if the queue emptied without Stop.
func (e *Engine) drained() {
	if e.onDrain != nil && !e.stopped && e.q.n == 0 {
		e.onDrain()
	}
}

// FireDrain invokes the drain hook if the queue is empty and the engine
// was not stopped. Drivers call it once true quiescence is reached —
// RunWindow deliberately never fires the hook, because an empty queue
// mid-window only means this engine is waiting on its peers.
func (e *Engine) FireDrain() { e.drained() }

// SetDriver installs (or, with nil, clears) a replacement run loop:
// subsequent Run/RunUntil calls delegate to d instead of stepping the
// local queue. The pdes runner uses this to substitute its barrier-window
// schedule for the serial loop without changing any Run call site.
func (e *Engine) SetDriver(d DriverFunc) { e.driver = d }

// Run fires events until the queue is empty or Stop is called, and returns
// the final simulation time. An aborted engine fires nothing more.
func (e *Engine) Run() Time {
	e.stopped = e.err != nil
	if e.driver != nil {
		return e.driver(0, false)
	}
	for !e.stopped && e.Step() {
	}
	e.drained()
	return e.now
}

// RunUntil fires events with timestamps <= deadline. Events scheduled
// later remain queued. Unless Stop froze the run mid-way, the clock then
// advances to deadline — also when the queue drained before reaching it —
// so repeated RunUntil calls tile simulated time without gaps. A deadline
// in the past fires nothing and leaves the clock unchanged (time never
// moves backwards). It returns the current time afterwards. An aborted
// engine fires nothing more.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = e.err != nil
	if e.driver != nil {
		return e.driver(deadline, true)
	}
	for !e.stopped && e.due(deadline) {
		e.Step()
	}
	e.drained()
	if e.now < deadline && !e.stopped {
		e.now = deadline
	}
	return e.now
}

// RunWindow fires events with timestamps <= deadline and advances the
// clock to deadline, like RunUntil, but ignores any installed driver and
// never fires the drain hook: it is the primitive drivers themselves are
// built from. One window of one engine is always executed by a single
// goroutine; the pdes runner's barrier hands engines between goroutines
// only at window boundaries.
func (e *Engine) RunWindow(deadline Time) Time {
	for !e.stopped && e.due(deadline) {
		e.Step()
	}
	if e.now < deadline && !e.stopped {
		e.now = deadline
	}
	return e.now
}

// NextAt reports the firing time of the earliest pending event, or false
// if the queue is empty.
func (e *Engine) NextAt() (Time, bool) { return e.q.next() }

// due reports whether an event is pending at or before deadline.
func (e *Engine) due(deadline Time) bool {
	at, ok := e.q.next()
	return ok && at <= deadline
}

// Stopped reports whether Stop froze the current run.
func (e *Engine) Stopped() bool { return e.stopped }

// Stop makes the current Run/RunUntil return after the in-flight handler
// completes. Pending events stay queued, and a stopped RunUntil does not
// advance the clock to its deadline (the run is frozen where it stopped).
func (e *Engine) Stop() { e.stopped = true }

// Abort ends the run with an error: a handler that finds the simulation
// cannot go on (a message lost past its retry budget, a graph node that
// cannot run) records err and stops the engine as Stop does. Only the
// first error is kept, and the engine stays stopped: later Run and
// RunUntil calls fire nothing. The caller of Run reads it with Err.
func (e *Engine) Abort(err error) {
	if e.err == nil {
		e.err = err
	}
	e.stopped = true
}

// Err reports the error the run was aborted with, or nil.
func (e *Engine) Err() error { return e.err }
