package fault

import (
	"errors"
	"reflect"
	"testing"

	"hybridndp/internal/vclock"
)

func TestParseRoundTrip(t *testing.T) {
	specs := []string{
		"",
		"flash.read.err=0.01",
		"dev.crash=0.5,slot.corrupt=0.005",
		"dev.crash@batch=7,dev.stall=2ms",
		"dev.crash=1,flash.read.err=0.25,seed=42,slot.corrupt=0.1,xfer.corrupt=0.2",
		"dev1:dev.stall=2ms",
		"dev.stall=1ms,dev1:dev.stall=2ms,dev3:dev.crash=0.5,seed=9",
	}
	for _, spec := range specs {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		p2, err := Parse(p.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", p.String(), err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("round trip of %q: %+v != %+v", spec, p, p2)
		}
		if p.String() != p2.String() {
			t.Fatalf("String round trip of %q: %q != %q", spec, p.String(), p2.String())
		}
	}
}

// TestDeviceScoping: a devN:-scoped entry applies only to device N; unscoped
// entries apply fleet-wide; plans without scoping resolve to themselves.
func TestDeviceScoping(t *testing.T) {
	p, err := Parse("dev.stall=1ms,dev1:dev.stall=2ms,dev1:slot.corrupt=0.5,dev3:dev.crash=1")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Enabled() {
		t.Fatal("scoped plan must be enabled")
	}
	d0 := p.ForDevice(0)
	if d0.DevStall != vclock.Duration(1e6) || d0.SlotCorrupt != 0 || d0.CrashProb != 0 {
		t.Fatalf("device 0 must see only unscoped entries: %+v", d0)
	}
	d1 := p.ForDevice(1)
	if d1.DevStall != vclock.Duration(2e6) || d1.SlotCorrupt != 0.5 {
		t.Fatalf("device 1 must see its overlay: %+v", d1)
	}
	d3 := p.ForDevice(3)
	if d3.CrashProb != 1 || d3.DevStall != vclock.Duration(1e6) {
		t.Fatalf("device 3 must merge overlay with base: %+v", d3)
	}

	// Scope-only plans are inert on unscoped devices.
	p2, err := Parse("dev1:dev.crash=1")
	if err != nil {
		t.Fatal(err)
	}
	if p2.ForDevice(0).Enabled() {
		t.Fatal("device 0 must be fault-free under dev1:-scoped plan")
	}
	if !p2.ForDevice(1).Enabled() {
		t.Fatal("device 1 must be faulted")
	}

	// Unscoped plans return the receiver (no allocation, shared injector seed).
	p3, err := Parse("dev.crash=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if p3.ForDevice(2) != p3 {
		t.Fatal("unscoped ForDevice must return the receiver")
	}
	var pn *Plan
	if pn.ForDevice(0) != nil {
		t.Fatal("nil plan ForDevice must stay nil")
	}
}

func TestScopedParseRejectsGarbage(t *testing.T) {
	for _, spec := range []string{
		"dev:dev.stall=2ms", "devx:dev.stall=2ms", "dev-1:dev.stall=2ms",
		"dev1:seed=5", "dev1:bogus=1",
	} {
		if _, err := Parse(spec); err == nil {
			t.Fatalf("Parse(%q) must fail", spec)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, spec := range []string{
		"flash.read.err=2", "dev.crash=-0.1", "dev.crash@batch=-1",
		"dev.stall=5", "dev.stall=2h", "bogus.key=1", "dev.crash",
	} {
		if _, err := Parse(spec); err == nil {
			t.Fatalf("Parse(%q) must fail", spec)
		}
	}
}

func TestParseDurations(t *testing.T) {
	p, err := Parse("dev.stall=2ms")
	if err != nil {
		t.Fatal(err)
	}
	if p.DevStall != vclock.Duration(2e6) {
		t.Fatalf("2ms = %v ns, want 2e6", float64(p.DevStall))
	}
	p, err = Parse("dev.stall=250ns")
	if err != nil {
		t.Fatal(err)
	}
	if p.DevStall != vclock.Duration(250) {
		t.Fatalf("250ns = %v", float64(p.DevStall))
	}
	p, err = Parse("dev.stall=1.5us")
	if err != nil {
		t.Fatal(err)
	}
	if p.DevStall != vclock.Duration(1500) {
		t.Fatalf("1.5us = %v", float64(p.DevStall))
	}
}

func TestSentinelsAreIsable(t *testing.T) {
	p, err := Parse("dev.crash@batch=0,flash.read.err=1")
	if err != nil {
		t.Fatal(err)
	}
	in := p.Injector("q|H1")
	ev := in.BeforeEmit()
	if ev.Crash == nil || !errors.Is(ev.Crash, ErrDeviceCrash) || !errors.Is(ev.Crash, ErrInjected) {
		t.Fatalf("crash error %v must wrap ErrDeviceCrash and ErrInjected", ev.Crash)
	}
	if !Injected(ev.Crash) {
		t.Fatal("Injected() must recognize the crash")
	}
	rerr := in.ReadFault(1, 0, 100)
	if rerr == nil || !errors.Is(rerr, ErrFlashRead) || !Injected(rerr) {
		t.Fatalf("read error %v must wrap ErrFlashRead", rerr)
	}
	if Injected(errors.New("plain")) {
		t.Fatal("Injected() must reject unrelated errors")
	}
}

// TestInjectorDeterministic: same plan + same run key ⇒ identical fault
// episode; different keys diverge (independent per-run streams).
func TestInjectorDeterministic(t *testing.T) {
	p, err := Parse("dev.crash=0.3,slot.corrupt=0.3,flash.read.err=0.3,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	episode := func(key string) []bool {
		in := p.Injector(key)
		var out []bool
		for i := 0; i < 64; i++ {
			ev := in.BeforeEmit()
			out = append(out, ev.Crash != nil, ev.Corrupt, in.ReadFault(1, int64(i), 8) != nil, in.TransferCorrupt())
		}
		return out
	}
	a, b := episode("8d|H1"), episode("8d|H1")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same key diverged at draw %d", i)
		}
	}
	c := episode("8d|H2")
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different run keys produced the identical episode")
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if ev := in.BeforeEmit(); ev.Crash != nil || ev.Corrupt || ev.Stall != 0 {
		t.Fatal("nil injector must not inject")
	}
	if in.ReadFault(1, 0, 10) != nil || in.TransferCorrupt() {
		t.Fatal("nil injector must not inject")
	}
	var p *Plan
	if p.Enabled() || p.Injector("k") != nil || p.String() != "" {
		t.Fatal("nil plan must be inert")
	}
	disabled, _ := Parse("")
	if disabled.Enabled() || disabled.Injector("k") != nil {
		t.Fatal("empty plan must be inert")
	}
}

func TestCrashAtBatch(t *testing.T) {
	p, err := Parse("dev.crash@batch=2")
	if err != nil {
		t.Fatal(err)
	}
	in := p.Injector("q")
	for i := 0; i < 2; i++ {
		if ev := in.BeforeEmit(); ev.Crash != nil {
			t.Fatalf("crashed early at batch %d", i)
		}
	}
	if ev := in.BeforeEmit(); ev.Crash == nil {
		t.Fatal("batch 2 must crash")
	}
}

func TestStallAppliesPerBatch(t *testing.T) {
	p, err := Parse("dev.stall=2ms")
	if err != nil {
		t.Fatal(err)
	}
	in := p.Injector("q")
	for i := 0; i < 3; i++ {
		ev := in.BeforeEmit()
		if ev.Stall != vclock.Duration(2e6) || ev.Crash != nil || ev.Corrupt {
			t.Fatalf("batch %d: %+v", i, ev)
		}
	}
}

// FuzzFaultPlanRoundTrip checks the -faults flag parser on arbitrary text: no
// input panics, and a spec Parse accepts renders to a canonical form that
// Parse accepts again and renders unchanged — Parse → String → Parse is a
// fixed point. Seeds: testdata/fuzz/FuzzFaultPlanRoundTrip.
func FuzzFaultPlanRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		canon := p.String()
		p2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form of %q does not parse: %q: %v", spec, canon, err)
		}
		if again := p2.String(); again != canon {
			t.Fatalf("String is not a fixed point for %q: %q then %q", spec, canon, again)
		}
	})
}
