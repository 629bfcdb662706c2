package fifo

import (
	"math/rand"
	"testing"
)

// TestQueueMatchesSlice drives a queue through random pushes and pops,
// some through PushZero, and checks every pop, Front and Back against a
// plain slice.
func TestQueueMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue[int]
	var ref []int
	for i := 0; i < 100000; i++ {
		if len(ref) == 0 || rng.Intn(5) < 3 {
			if rng.Intn(2) == 0 {
				q.Push(i)
			} else {
				*q.PushZero() = i
			}
			ref = append(ref, i)
		} else {
			if got := *q.Front(); got != ref[0] {
				t.Fatalf("op %d: front %d, want %d", i, got, ref[0])
			}
			q.Pop()
			ref = ref[1:]
		}
		if q.Len() != len(ref) {
			t.Fatalf("op %d: Len %d, want %d", i, q.Len(), len(ref))
		}
		if len(ref) > 0 && (*q.Front() != ref[0] || *q.Back() != ref[len(ref)-1]) {
			t.Fatalf("op %d: Front %d Back %d, want %d and %d", i, *q.Front(), *q.Back(), ref[0], ref[len(ref)-1])
		}
	}
}

// TestQueueNeverDrainingStaysBounded keeps a queue between 1 and 100
// items for a million operations: its array must stay within four times
// the longest the queue has been, and every slot outside the live items
// must be zero, as PushZero relies on.
func TestQueueNeverDrainingStaysBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var q Queue[*int]
	peak := 0
	for i := 0; i < 1000000; i++ {
		if q.Len() <= 1 || (q.Len() < 100 && rng.Intn(2) == 0) {
			q.Push(new(int))
			peak = max(peak, q.Len())
		} else {
			q.Pop()
		}
	}
	if q.Cap() > 4*peak {
		t.Fatalf("array grew to %d slots, peak length %d", q.Cap(), peak)
	}
	for i, p := range q.items[:cap(q.items)] {
		if (i < q.head || i >= len(q.items)) && p != nil {
			t.Fatalf("slot %d outside the live items holds a pointer", i)
		}
	}
}
