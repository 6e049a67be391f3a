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
	classes [numPriorities][]T
	size    int
	depth   int
	pops    uint64
}

// NewQueue returns an empty queue holding at most depth items.
func NewQueue[T Queued](depth int) *Queue[T] { return &Queue[T]{depth: depth} }

// Push appends item to its class; false means the queue is at depth.
func (q *Queue[T]) Push(p Priority, item T) bool {
	if q.size >= q.depth {
		return false
	}
	q.classes[p] = append(q.classes[p], item)
	q.size++
	return true
}

// Len reports the queued item count across classes.
func (q *Queue[T]) Len() int { return q.size }

// ClassLen reports one class's depth.
func (q *Queue[T]) ClassLen(p Priority) int { return len(q.classes[p]) }

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
			if len(q.classes[c]) == 0 {
				continue
			}
			if at := q.classes[c][0].QueuedAt(); pick < 0 || at < oldest {
				pick, oldest = c, at
			}
		}
		return pick
	}
	for c := range q.classes {
		if len(q.classes[c]) > 0 {
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
	return q.classes[c][0], true
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
	item := q.classes[c][0]
	q.classes[c] = q.classes[c][1:]
	q.size--
	return item, true
}

// Sweep removes every item dead reports true for, in class then queue order,
// freeing their slots of the bounded queue.
func (q *Queue[T]) Sweep(dead func(T) bool) {
	var zero T
	for c := range q.classes {
		kept := q.classes[c][:0]
		for _, item := range q.classes[c] {
			if dead(item) {
				q.size--
				continue
			}
			kept = append(kept, item)
		}
		for i := len(kept); i < len(q.classes[c]); i++ {
			q.classes[c][i] = zero
		}
		q.classes[c] = kept
	}
}
