package noc

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"astrasim/internal/config"
	"astrasim/internal/eventq"
)

// partitioned returns a ring4 network partitioned over k shard engines,
// with its main engine. Each ring4 link is its own component, so link i
// runs on shard i%k.
func partitioned(t testing.TB, k int) (*eventq.Engine, *Network) {
	t.Helper()
	eng, _, net := ring4(t, config.DefaultNetwork())
	engs := make([]*eventq.Engine, k)
	for i := range engs {
		engs[i] = eventq.New()
	}
	if err := net.Partition(engs, 1); err != nil {
		t.Fatal(err)
	}
	return eng, net
}

// crossEv is one hand-built shard→main delivery: the shard whose outbox
// buffers it, its firing time and its key.
type crossEv struct {
	shard int
	at    eventq.Time
	key   eventq.Key
}

// compareCross is the reference order: the main engine's six-field key
// (at, ctime, gen2, comp, seq; the splice ordinal is 0 on every flushed
// delivery).
func compareCross(a, b crossEv) int {
	return cmp.Or(
		cmp.Compare(a.at, b.at),
		cmp.Compare(a.key.Ctime, b.key.Ctime),
		cmp.Compare(a.key.Gen2, b.key.Gen2),
		cmp.Compare(a.key.Comp, b.key.Comp),
		cmp.Compare(a.key.Seq, b.key.Seq))
}

// buffer pushes evs into their shards' outboxes in the given order and
// returns their messages; delivering evs[i]'s message reports i to
// delivered.
func buffer(net *Network, evs []crossEv, delivered func(int)) []*Message {
	msgs := make([]*Message, len(evs))
	for i, e := range evs {
		msgs[i] = &Message{net: net, packetsLeft: 1, OnDelivered: func(*Message) { delivered(i) }}
		net.shards[e.shard].push(outEvent{at: e.at, key: e.key, msg: msgs[i]})
	}
	return msgs
}

// checkFlushOrder buffers evs and fails unless the merge hands them to
// the main engine in the reference order, and unless the engine fires
// them in that order after a FlushCross. (The main engine would fire any
// injection order correctly, but it walks back through a cycle's bucket
// for every key injected out of order, so the merge order is checked on
// its own.)
func checkFlushOrder(t *testing.T, k int, evs []crossEv) {
	t.Helper()
	want := make([]int, len(evs))
	for i := range want {
		want[i] = i
	}
	slices.SortFunc(want, func(a, b int) int { return compareCross(evs[a], evs[b]) })

	_, net := partitioned(t, k)
	index := make(map[*Message]int, len(evs))
	for i, m := range buffer(net, evs, func(int) {}) {
		index[m] = i
	}
	merged := []int{}
	net.mergeCross(func(e *outEvent) { merged = append(merged, index[e.msg]) })
	if !slices.Equal(merged, want) {
		t.Fatalf("merged order %v, want %v (a sort by the six-field key)", merged, want)
	}

	eng, net := partitioned(t, k)
	fired := []int{}
	buffer(net, evs, func(i int) { fired = append(fired, i) })
	net.FlushCross()
	for _, sh := range net.shards {
		if len(sh.out) != 0 || sh.next != 0 {
			t.Fatalf("outbox not reset by the flush: %d buffered, cursor %d", len(sh.out), sh.next)
		}
	}
	eng.Run()
	if !slices.Equal(fired, want) {
		t.Fatalf("fired order %v, want %v", fired, want)
	}
}

// key builds an ordering key.
func key(ctime, gen2 eventq.Time, comp uint32, seq uint64) eventq.Key {
	return eventq.Key{Ctime: ctime, Gen2: gen2, Comp: comp, Seq: seq}
}

// TestFlushCrossMatchesSort checks FlushCross's merge of the shards'
// outboxes against a reference sort of the same deliveries by the main
// engine's key, on hand-built outboxes and on random ones.
func TestFlushCrossMatchesSort(t *testing.T) {
	cases := []struct {
		name string
		k    int
		evs  []crossEv
	}{
		{"nothing buffered", 3, nil},
		{"one shard, out of order", 1, []crossEv{
			{0, 120, key(30, 10, 1, 4)},
			{0, 100, key(10, 5, 1, 1)},
			{0, 120, key(30, 10, 1, 2)},
			{0, 110, key(20, 5, 1, 3)},
			{0, 100, key(9, 5, 1, 5)},
		}},
		{"empty shards between full ones", 5, []crossEv{
			{0, 200, key(100, 90, 1, 1)},
			{2, 150, key(60, 50, 3, 1)},
			{4, 180, key(90, 80, 5, 1)},
			{0, 140, key(50, 40, 1, 2)},
			{4, 140, key(50, 40, 5, 2)},
		}},
		{"equal at across shards", 3, []crossEv{
			{0, 300, key(210, 200, 1, 7)},
			{1, 300, key(200, 190, 2, 3)},
			{2, 300, key(210, 190, 3, 9)},
			{1, 300, key(210, 200, 2, 8)},
		}},
		{"comp breaks a (at, ctime, gen2) tie", 4, []crossEv{
			{3, 500, key(400, 300, 4, 1)},
			{1, 500, key(400, 300, 2, 6)},
			{0, 500, key(400, 300, 5, 2)}, // component 5 runs on shard 0 of 4
			{2, 500, key(400, 300, 3, 5)},
			{0, 500, key(400, 300, 1, 9)},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkFlushOrder(t, c.k, c.evs) })
	}

	// Random outboxes over a narrow range of every field, so ties reach
	// each level of the key. Component c lives on shard (c-1)%k, and seq
	// is unique, as on a real partitioned run.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(8)
		evs := make([]crossEv, rng.Intn(60))
		for i := range evs {
			c := uint32(1 + rng.Intn(2*k))
			evs[i] = crossEv{
				shard: int(c-1) % k,
				at:    eventq.Time(100 + rng.Intn(4)),
				key:   key(eventq.Time(rng.Intn(3)), eventq.Time(rng.Intn(3)), c, uint64(i)),
			}
		}
		rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
		checkFlushOrder(t, k, evs)
	}
}

// TestFlushCrossZeroAlloc pins a steady-state window barrier at zero
// allocations: once the outboxes and the main queue have grown, buffering
// deliveries, flushing them and firing them allocates nothing.
func TestFlushCrossZeroAlloc(t *testing.T) {
	const k, perShard = 4, 16
	eng, net := partitioned(t, k)
	msgs := make([]Message, k*perShard)
	window := func() {
		base := eng.Now() + 1
		for i := range msgs {
			msgs[i].net, msgs[i].packetsLeft = net, 1
			sh := i % k
			// Descending times inside each shard: every push walks back.
			at := base + eventq.Time(len(msgs)-i)
			net.shards[sh].push(outEvent{at: at, key: key(base, base, uint32(sh+1), uint64(i)), msg: &msgs[i]})
		}
		net.FlushCross()
		eng.Run()
	}
	for i := 0; i < 4; i++ {
		window()
	}
	if allocs := testing.AllocsPerRun(100, window); allocs != 0 {
		t.Fatalf("steady-state flush allocated %v times per window, want 0", allocs)
	}
}
