package sched

import (
	"context"
	"errors"
	"testing"

	"hybridndp/internal/job"
	"hybridndp/internal/vclock"
)

// expiredOf drains the scheduler and counts the tickets that resolved with
// exactly ErrExpired; any other failure is fatal.
func expiredOf(t *testing.T, s *Scheduler, tickets []*Ticket) int {
	t.Helper()
	s.Close()
	n := 0
	for _, tk := range tickets {
		o := tk.Outcome()
		if o == nil {
			t.Fatal("ticket unresolved after Close")
		}
		if o.Err != nil {
			if !errors.Is(o.Err, ErrExpired) || errors.Is(o.Err, ErrQueueFull) || errors.Is(o.Err, ErrClosed) {
				t.Fatalf("outcome err = %v, want exactly ErrExpired", o.Err)
			}
			n++
		}
	}
	return n
}

// TestAdmissionErrorContract pins the typed admission errors callers key on:
// TrySubmit distinguishes queue-full from closed, and an in-queue expiry
// surfaces as ErrExpired on the outcome (errors.Is through wrapping).
func TestAdmissionErrorContract(t *testing.T) {
	opt, exec, m := fixture(t)
	q := job.Queries()[0]

	// Queue-full: depth 1, and TrySubmit never dispatches.
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	s := New(opt, exec, m, cfg)
	if _, err := s.TrySubmit(q, Normal); err != nil {
		t.Fatalf("TrySubmit into an empty queue: %v", err)
	}
	if _, err := s.TrySubmit(q, Normal); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("TrySubmit error = %v, want ErrQueueFull", err)
	}
	s.Close()
	if _, err := s.TrySubmit(q, Normal); !errors.Is(err, ErrClosed) {
		t.Fatalf("TrySubmit after Close = %v, want ErrClosed", err)
	}
	if _, err := s.Submit(context.Background(), q, Normal); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}

	// Expiry: one host lane, so every ticket behind the first waits out its
	// predecessors' virtual runtimes — far past a 1ns QueryTimeout.
	stack := func(s *Scheduler, dl Deadline) []*Ticket {
		t.Helper()
		tickets := make([]*Ticket, 0, 8)
		for i := 0; i < 8; i++ {
			tk, err := s.SubmitDeadline(context.Background(), q, Normal, dl)
			if err != nil {
				t.Fatal(err)
			}
			tickets = append(tickets, tk)
		}
		return tickets
	}
	cfg = DefaultConfig()
	cfg.Workers = 1
	cfg.Policy = ForceHost
	cfg.QueryTimeout = vclock.Nanosecond
	s2 := New(opt, exec, m, cfg)
	if n := expiredOf(t, s2, stack(s2, Deadline{})); n != 7 {
		t.Fatalf("%d of 8 tickets expired past QueryTimeout, want 7 (all but the head)", n)
	}

	// A context cancelled before Submit is the submitter's error, not an
	// expiry; one cancelled while the ticket queues reads as ErrExpired.
	cfg = DefaultConfig()
	cfg.Workers = 1
	s3 := New(opt, exec, m, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	tk, err := s3.Submit(ctx, q, Normal)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := s3.Submit(ctx, q, Normal); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit with cancelled ctx = %v", err)
	}
	if n := expiredOf(t, s3, []*Ticket{tk}); n != 1 {
		t.Fatal("ticket whose context was cancelled in queue did not expire")
	}

	// Per-ticket queue deadline: expiry works with no scheduler-wide
	// QueryTimeout at all, and still reads as ErrExpired (never as
	// ErrQueueFull or ErrClosed).
	cfg = DefaultConfig()
	cfg.Workers = 1
	cfg.Policy = ForceHost
	s4 := New(opt, exec, m, cfg)
	if n := expiredOf(t, s4, stack(s4, Deadline{Queue: vclock.Nanosecond})); n != 7 {
		t.Fatalf("%d of 8 tickets expired past their queue deadline, want 7", n)
	}
}

// TestAgingScanExpiresQueuedTickets pins the expiry sweep: a ticket whose
// queue deadline passed while queued is rejected during the every-fourth-pop
// aging scan — freeing its bounded-queue slot — instead of lingering until
// its own turn. The front is driven directly, at a chosen virtual instant.
func TestAgingScanExpiresQueuedTickets(t *testing.T) {
	opt, exec, m := fixture(t)
	s := New(opt, exec, m, DefaultConfig())
	q := job.Queries()[0]
	enq := func(dl Deadline) *Ticket { return s.enqueue(context.Background(), q, Normal, dl) }
	dead1 := enq(Deadline{Queue: vclock.Millisecond})
	alive := enq(Deadline{})
	dead2 := enq(Deadline{Queue: 2 * vclock.Millisecond})

	// The next pop is the fourth dispatch: the sweep must reject both
	// deadline-dead tickets in place and the aged pick returns the survivor.
	s.queue.pops = 3
	if got, ok := s.Pick(vclock.Time(10 * vclock.Millisecond)); !ok || got != alive {
		t.Fatalf("aged pop returned %+v, want the deadline-free ticket", got)
	}
	for i, tk := range []*Ticket{dead1, dead2} {
		o := tk.Outcome()
		if o == nil {
			t.Fatalf("expired ticket %d not resolved by the aging scan", i)
		}
		if !errors.Is(o.Err, ErrExpired) {
			t.Fatalf("expired ticket %d err = %v, want ErrExpired", i, o.Err)
		}
	}
	if s.queue.Len() != 0 {
		t.Fatalf("queued = %d after sweep+pop, want 0", s.queue.Len())
	}
	if st := s.Stats(); st.Rejected != 2 {
		t.Fatalf("rejected = %d, want 2", st.Rejected)
	}
}
