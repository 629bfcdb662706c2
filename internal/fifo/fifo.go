// Package fifo is the simulator's one first-in-first-out queue: the
// system layer's injection and chunk queues and the network's packet
// queues, waiter lists and packet-train segments all use it.
package fifo

// Queue is a FIFO popped through a head index, so a pop keeps the
// backing array. A queue that empties starts over at the array's front,
// and a push into a full array first slides the live items back to its
// start when at least half of it holds popped slots, so the array grows
// only while the queue does: under steady load that never drains, it
// stays within four times the longest the queue has been. Every slot
// outside the live items is zero. The zero value is an empty queue.
type Queue[T any] struct {
	items []T
	head  int
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Cap reports the backing array's capacity.
func (q *Queue[T]) Cap() int { return cap(q.items) }

// Push appends v.
func (q *Queue[T]) Push(v T) { *q.PushZero() = v }

// PushZero appends a zero item and returns it, for a caller that fills
// a large item in place rather than copying one in.
func (q *Queue[T]) PushZero() *T {
	n := len(q.items)
	switch {
	case n < cap(q.items):
		q.items = q.items[:n+1]
	case q.head > 0 && 2*q.head >= n:
		n = copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n+1], 0
	default:
		var zero T
		q.items = append(q.items, zero)
	}
	return &q.items[n]
}

// Front returns the oldest item; the queue must not be empty.
func (q *Queue[T]) Front() *T { return &q.items[q.head] }

// Back returns the newest item; the queue must not be empty.
func (q *Queue[T]) Back() *T { return &q.items[len(q.items)-1] }

// Pop removes the oldest item, which Front returns; the queue must not
// be empty. The vacated slot is cleared, so the array holds no stale
// pointers.
func (q *Queue[T]) Pop() {
	var zero T
	q.items[q.head] = zero
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
}
