package fastnet

import (
	"math"
	"math/rand"
	"testing"

	"astrasim/internal/eventq"
)

// TestSerTableMatchesLoop drives one link through a random stream of
// message sizes, carry resets and bandwidth changes, charging every
// message through the memo and a twin link through the bare carry loop:
// cycles and carry bits must agree on every message, and the stream must
// produce both hits and misses.
func TestSerTableMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	memo := newSerTable()
	cached := &flink{effBW: 37.5}
	bare := &flink{effBW: 37.5}
	sizes := []int64{1, 63, 64, 65, 1000, 4096, 65536, 1 << 20}
	bws := []float64{37.5, 25 * 0.94, 200.0 / 3}
	carries := []float64{0, 0.5, 1.0 / 3, math.Nextafter(0.5, 1)}
	hits := 0
	for i := 0; i < 20000; i++ {
		switch r := rng.Intn(50); {
		case r == 0:
			bw := bws[rng.Intn(len(bws))]
			cached.effBW, bare.effBW = bw, bw
		case r < 4:
			c := carries[rng.Intn(len(carries))]
			cached.serCarry, bare.serCarry = c, c
		}
		bytes := sizes[rng.Intn(len(sizes))] + int64(rng.Intn(3))
		pkt := int64(64 << rng.Intn(3))
		numPkts := (bytes + pkt - 1) / pkt

		key := serKey{bw: math.Float64bits(cached.effBW), carry: math.Float64bits(cached.serCarry), bytes: bytes, pkt: pkt}
		v, ok := memo.get(key)
		if ok {
			hits++
			cached.serCarry = v.carry
		} else {
			cycles := cached.serLoop(bytes, pkt, numPkts)
			v = serVal{cycles: cycles, carry: cached.serCarry}
			memo.put(key, v)
		}
		want := bare.serLoop(bytes, pkt, numPkts)
		if v.cycles != want || math.Float64bits(cached.serCarry) != math.Float64bits(bare.serCarry) {
			t.Fatalf("message %d (%d B, %d B packets, hit %v): %d cycles carry %v, loop %d cycles carry %v",
				i, bytes, pkt, ok, v.cycles, cached.serCarry, want, bare.serCarry)
		}
	}
	if hits == 0 || hits == 20000 {
		t.Fatalf("%d hits in 20000 charges: the stream must mix hits and misses", hits)
	}
}

// TestSerTableCollisions gives eight distinct keys the table's last slot
// as their home, so their probe run wraps to the front, and checks each is
// found with its own value while keys never inserted but sharing that
// home miss.
func TestSerTableCollisions(t *testing.T) {
	memo := newSerTable()
	var same []serKey
	for b := int64(1); len(same) < 12; b++ {
		k := serKey{bw: 1, carry: 2, bytes: b, pkt: 64}
		if memo.home(k) == serTableMinSlots-1 {
			same = append(same, k)
		}
	}
	for i, k := range same[:8] {
		memo.put(k, serVal{cycles: eventq.Time(i + 1), carry: float64(i)})
	}
	if memo.count != 8 || len(memo.slots) != serTableMinSlots {
		t.Fatalf("count %d in %d slots, want 8 in %d", memo.count, len(memo.slots), serTableMinSlots)
	}
	for i, k := range same[:8] {
		v, ok := memo.get(k)
		if !ok || v.cycles != eventq.Time(i+1) || v.carry != float64(i) {
			t.Fatalf("colliding key %d: got %+v, %v", i, v, ok)
		}
	}
	for _, k := range same[8:] {
		if v, ok := memo.get(k); ok {
			t.Fatalf("absent key %+v found with %+v", k, v)
		}
	}
}

// TestSerTableGrowth inserts past several doublings and checks every
// entry survives each rehash.
func TestSerTableGrowth(t *testing.T) {
	memo := newSerTable()
	const n = 5000
	key := func(i int) serKey {
		return serKey{bw: uint64(i % 7), carry: math.Float64bits(float64(i) / n), bytes: int64(i%97 + 1), pkt: 64}
	}
	for i := 0; i < n; i++ {
		memo.put(key(i), serVal{cycles: eventq.Time(i)})
	}
	if memo.count != n || 2*memo.count > len(memo.slots) {
		t.Fatalf("count %d in %d slots, want %d at most half full", memo.count, len(memo.slots), n)
	}
	for i := 0; i < n; i++ {
		if v, ok := memo.get(key(i)); !ok || v.cycles != eventq.Time(i) {
			t.Fatalf("entry %d lost after growth: %+v, %v", i, v, ok)
		}
	}
}
