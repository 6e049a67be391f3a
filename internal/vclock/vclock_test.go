package vclock

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestChargeAdvancesClock(t *testing.T) {
	tl := NewTimeline("host")
	if tl.Now() != 0 {
		t.Fatal("fresh timeline must start at zero")
	}
	tl.Charge("work", 100*Microsecond)
	tl.Charge("work", 50*Microsecond)
	tl.Charge("other", 25*Microsecond)
	if got := tl.Now(); got != Time(175*Microsecond) {
		t.Fatalf("Now = %v, want 175µs", got)
	}
	if got := tl.Booked("work"); got != 150*Microsecond {
		t.Fatalf("Booked(work) = %v", got)
	}
}

func TestChargePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge must panic")
		}
	}()
	NewTimeline("x").Charge("bad", -1)
}

func TestWaitUntil(t *testing.T) {
	tl := NewTimeline("host")
	tl.Charge("work", 10*Microsecond)
	// Waiting for a past instant is free.
	if d := tl.WaitUntil(Time(5*Microsecond), "wait"); d != 0 {
		t.Fatalf("past wait returned %v", d)
	}
	if tl.Now() != Time(10*Microsecond) {
		t.Fatal("past wait must not move the clock")
	}
	// Waiting for a future instant books the stall.
	if d := tl.WaitUntil(Time(30*Microsecond), "wait"); d != 20*Microsecond {
		t.Fatalf("future wait returned %v, want 20µs", d)
	}
	if tl.Booked("wait") != 20*Microsecond {
		t.Fatalf("wait booked %v", tl.Booked("wait"))
	}
	if tl.Now() != Time(30*Microsecond) {
		t.Fatalf("Now = %v", tl.Now())
	}
}

// TestAccountMatchesPerCategorySums pins the dense account against the model
// it replaced: every category's total is the left-to-right float sum of its
// own charges — bit for bit, whatever order the categories first appeared in —
// a zero charge still opens its category, and a wait that did not stall books
// nothing.
func TestAccountMatchesPerCategorySums(t *testing.T) {
	cats := []string{"flash load", "memcmp", "memcpy", "seek index block", "seek data block", "wait"}
	rng := rand.New(rand.NewSource(7))
	tl := NewTimeline("host")
	want := map[string]Duration{}
	for i := 0; i < 5000; i++ {
		c := cats[rng.Intn(len(cats))]
		d := Duration(rng.Float64() * 1e3)
		if i%97 == 0 {
			d = 0
		}
		if c != "wait" {
			tl.Charge(c, d)
			want[c] += d
			continue
		}
		until := tl.Now().Add(d)
		if gap := until.Sub(tl.Now()); gap > 0 {
			want[c] += gap
		}
		tl.WaitUntil(until, c)
	}
	got := tl.Account()
	if len(got) != len(want) {
		t.Fatalf("account has %d categories, want %d: %v", len(got), len(want), got)
	}
	for c, w := range want {
		if got[c] != w || tl.Booked(c) != w {
			t.Errorf("%s: account %v booked %v, want %v", c, got[c], tl.Booked(c), w)
		}
	}
	if tl.Booked("never charged") != 0 {
		t.Error("unknown category must read zero")
	}
}

func TestResetClearsState(t *testing.T) {
	tl := NewTimeline("x")
	tl.Charge("a", 5)
	tl.Reset()
	if tl.Now() != 0 || tl.Booked("a") != 0 || len(tl.Account()) != 0 {
		t.Fatal("Reset left state behind")
	}
}

func TestAccountIsACopy(t *testing.T) {
	tl := NewTimeline("x")
	tl.Charge("a", 5)
	acc := tl.Account()
	acc["a"] = 999
	if tl.Booked("a") != 5 {
		t.Fatal("mutating the returned account affected the timeline")
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(100)
	b := a.Add(50)
	if b != Time(150) {
		t.Fatalf("Add: %v", b)
	}
	if d := b.Sub(a); d != 50 {
		t.Fatalf("Sub: %v", d)
	}
	if MaxTime(a, b) != b || MaxTime(b, a) != b {
		t.Fatal("MaxTime wrong")
	}
}

func TestDurationConversions(t *testing.T) {
	d := 1500 * Millisecond
	if d.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v", d.Seconds())
	}
	if d.Milliseconds() != 1500 {
		t.Fatalf("Milliseconds = %v", d.Milliseconds())
	}
}

func TestClockMonotonicProperty(t *testing.T) {
	// Any sequence of charges and waits keeps the clock monotone and the
	// clock always equals the sum of all booked durations.
	f := func(charges []uint16) bool {
		tl := NewTimeline("p")
		prev := tl.Now()
		for i, c := range charges {
			if i%3 == 2 {
				tl.WaitUntil(tl.Now().Add(Duration(c)), "w")
			} else {
				tl.Charge("c", Duration(c))
			}
			if tl.Now() < prev {
				return false
			}
			prev = tl.Now()
		}
		var sum Duration
		for _, v := range tl.Account() {
			sum += v
		}
		return Time(sum) == tl.Now()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTimelineCharge books the four charges of one primary-key probe on a
// timeline holding the categories of a host-native query run, in the order
// such a run first charges them (scan, hash build, probe, index join, group).
func BenchmarkTimelineCharge(b *testing.B) {
	tl := NewTimeline("host")
	for _, c := range []string{
		"flash load", "record evaluation", "memcpy", "selection processing", "hash build", "hash probe",
		"memcmp", "buffer management", "seek index block", "seek data block", "grouping",
	} {
		tl.Charge(c, 1)
	}
	probe := []string{"seek index block", "flash load", "seek data block", "memcmp"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range probe {
			tl.Charge(c, 12.5)
		}
	}
}
