package sched

import (
	"fmt"

	"hybridndp/internal/vclock"
)

// Priority classes order the admission queue. Within a class the queue is
// FIFO; across classes higher priorities dispatch first, with aging so Batch
// work is never starved (every fourth dispatch takes the oldest item
// regardless of class).
type Priority int

// Priority classes, highest first.
const (
	High Priority = iota
	Normal
	Batch
	numPriorities = 3
)

func (p Priority) String() string {
	switch p {
	case High:
		return "high"
	case Normal:
		return "normal"
	case Batch:
		return "batch"
	}
	return fmt.Sprintf("Priority(%d)", int(p))
}

// Queued is what the queue asks of an item: the virtual instant it was
// enqueued, which is what aging compares.
type Queued interface{ QueuedAt() vclock.Time }

// Queue is the bounded three-class admission queue, the only one in the
// repository: the scheduler holds one, the serving front door one per tenant.
type Queue[T Queued] struct {
	classes [numPriorities]fifo[T]
	size    int
	depth   int
	pops    uint64
}

// fifo is one priority class: the live items are items[head:]. Pop zeroes
// the slot it vacates, so the queue keeps nothing it dispatched reachable, and
// a push that finds the array full slides the live items to its front when at
// least half of it is vacated, so a class that keeps draining reuses one
// array instead of growing a new one (each slide moves at most as many items
// as were popped since the last, so a push costs O(1) amortized).
type fifo[T any] struct {
	items []T
	head  int
}

func (f *fifo[T]) len() int { return len(f.items) - f.head }

func (f *fifo[T]) front() T { return f.items[f.head] }

func (f *fifo[T]) push(item T) {
	if len(f.items) == cap(f.items) && f.head > 0 && 2*f.head >= len(f.items) {
		n := copy(f.items, f.items[f.head:])
		clear(f.items[n:])
		f.items, f.head = f.items[:n], 0
	}
	f.items = append(f.items, item)
}

func (f *fifo[T]) pop() T {
	item := f.items[f.head]
	var zero T
	f.items[f.head] = zero
	if f.head++; f.head == len(f.items) {
		f.items, f.head = f.items[:0], 0
	}
	return item
}

// sweep removes every item dead reports true for, keeping the rest in order.
func (f *fifo[T]) sweep(dead func(T) bool) (removed int) {
	kept := f.items[:0]
	for _, item := range f.items[f.head:] {
		if !dead(item) {
			kept = append(kept, item)
		}
	}
	removed = f.len() - len(kept)
	clear(f.items[len(kept):])
	f.items, f.head = kept, 0
	return removed
}

// NewQueue returns an empty queue holding at most depth items.
func NewQueue[T Queued](depth int) *Queue[T] { return &Queue[T]{depth: depth} }

// Push appends item to its class; false means the queue is at depth.
func (q *Queue[T]) Push(p Priority, item T) bool {
	if q.size >= q.depth {
		return false
	}
	q.classes[p].push(item)
	q.size++
	return true
}

// Len reports the queued item count across classes.
func (q *Queue[T]) Len() int { return q.size }

// ClassLen reports one class's depth.
func (q *Queue[T]) ClassLen(p Priority) int { return q.classes[p].len() }

// Aging reports whether the next Pop is the aging dispatch: the oldest head
// across all classes instead of the highest non-empty class.
func (q *Queue[T]) Aging() bool { return (q.pops+1)%4 == 0 }

// next picks the class the next Pop takes from without changing state, so
// Peek and Pop always agree. Equal ages resolve toward the higher class.
func (q *Queue[T]) next() int {
	pick := -1
	if q.Aging() {
		var oldest vclock.Time
		for c := range q.classes {
			if q.classes[c].len() == 0 {
				continue
			}
			if at := q.classes[c].front().QueuedAt(); pick < 0 || at < oldest {
				pick, oldest = c, at
			}
		}
		return pick
	}
	for c := range q.classes {
		if q.classes[c].len() > 0 {
			return c
		}
	}
	return pick
}

// Peek returns the item the next Pop will dispatch.
func (q *Queue[T]) Peek() (T, bool) {
	c := q.next()
	if c < 0 {
		var zero T
		return zero, false
	}
	return q.classes[c].front(), true
}

// Pop removes the next item. An empty queue does not consume a dispatch
// count, so the aging cadence counts dispatches, not attempts.
func (q *Queue[T]) Pop() (T, bool) {
	c := q.next()
	if c < 0 {
		var zero T
		return zero, false
	}
	q.pops++
	q.size--
	return q.classes[c].pop(), true
}

// Sweep removes every item dead reports true for, in class then queue order,
// freeing their slots of the bounded queue.
func (q *Queue[T]) Sweep(dead func(T) bool) {
	for c := range q.classes {
		q.size -= q.classes[c].sweep(dead)
	}
}
