package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"hybridndp/internal/vclock"
)

func TestSpanNestingAndDurations(t *testing.T) {
	tr := NewTrace("q")
	tl := vclock.NewTimeline("host")

	root := tr.Start(tl, "root")
	tl.Charge("work", 100)
	child := tr.Start(tl, "child")
	tl.Charge("work", 50)
	grand := tr.Start(tl, "grand")
	tl.Charge("work", 25)
	grand.End()
	child.End()
	tl.Charge("work", 10)
	// Sibling after the pops nests under root again.
	sib := tr.Start(tl, "sibling")
	sib.End()
	root.End()

	spans := tr.spans
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	if spans[0].parent != -1 || spans[1].parent != spans[0].id || spans[2].parent != spans[1].id {
		t.Fatalf("nesting broken: parents %d %d %d", spans[0].parent, spans[1].parent, spans[2].parent)
	}
	if got := spans[3].parent; got != spans[0].id {
		t.Fatalf("sibling parent %d, want root %d", got, spans[0].id)
	}
	if d := root.end.Sub(root.start); d != 185 {
		t.Fatalf("root duration %v, want 185", d)
	}
	if d := grand.end.Sub(grand.start); d != 25 {
		t.Fatalf("grand duration %v, want 25", d)
	}
}

func TestSpansSeparateTimelinesDoNotNest(t *testing.T) {
	tr := NewTrace("q")
	host := vclock.NewTimeline("host")
	dev := vclock.NewTimeline("device")
	h := tr.Start(host, "host-root")
	d := tr.Start(dev, "device-root")
	if got := tr.spans[1].parent; got != -1 {
		t.Fatalf("device root nested under host span (parent %d)", got)
	}
	d.End()
	h.End()
}

func TestNilTraceIsNoop(t *testing.T) {
	var tr *Trace
	tl := vclock.NewTimeline("host")
	sp := tr.Start(tl, "x").Attr("k", "v").AttrInt("n", 1)
	sp.End()
	if sp != nil || tr.Len() != 0 {
		t.Fatal("nil trace must be inert")
	}
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b, 1); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(b.String()) != "[]" {
		t.Fatalf("nil trace dump %q", b.String())
	}
	if err := tr.WriteFlame(&b); err != nil {
		t.Fatal(err)
	}
}

// chromeEvent mirrors the trace_event fields we assert on.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Args map[string]string `json:"args"`
}

func TestWriteChromeTraceParsesAndIsStable(t *testing.T) {
	build := func() *Trace {
		tr := NewTrace("8d")
		host := vclock.NewTimeline("host")
		dev := vclock.NewTimeline("device")
		r := tr.Start(host, "query:8d").Attr("strategy", "H2")
		s := tr.Start(dev, "device.chunk").AttrInt("rows", 512).AttrInt("chunk", 0)
		dev.Charge("scan", 2000)
		s.End()
		host.Charge("build", 1500)
		r.End()
		return tr
	}
	var a, b strings.Builder
	if err := build().WriteChromeTrace(&a, 1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteChromeTrace(&b, 1); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two identical executions produced different trace bytes")
	}

	var events []chromeEvent
	if err := json.Unmarshal([]byte(a.String()), &events); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	var meta, complete int
	tids := map[int]bool{}
	for _, e := range events {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			complete++
			tids[e.Tid] = true
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if meta != 3 { // process_name + 2 thread_name
		t.Fatalf("got %d metadata events, want 3", meta)
	}
	if complete != 2 || !tids[0] || !tids[1] {
		t.Fatalf("want 2 X events on 2 tids, got %d on %v", complete, tids)
	}
	// Sorted attrs: chunk before rows.
	var found bool
	for _, e := range events {
		if e.Name == "device.chunk" {
			found = true
			if e.Args["rows"] != "512" || e.Args["chunk"] != "0" {
				t.Fatalf("span args %v", e.Args)
			}
			if e.Dur != 2 { // 2000 ns = 2 µs
				t.Fatalf("span dur %v µs, want 2", e.Dur)
			}
		}
	}
	if !found {
		t.Fatal("device.chunk span missing")
	}
}

func TestWriteFlameShowsTreeAndAttrs(t *testing.T) {
	tr := NewTrace("q")
	tl := vclock.NewTimeline("host")
	root := tr.Start(tl, "root")
	tl.Charge("w", 100)
	c := tr.Start(tl, "child").Attr("k", "v")
	tl.Charge("w", 50)
	c.End()
	root.End()
	var b strings.Builder
	if err := tr.WriteFlame(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"trace q (2 spans)", "root", "child", "k=v", "host"} {
		if !strings.Contains(out, want) {
			t.Fatalf("flame output missing %q:\n%s", want, out)
		}
	}
}

func TestTraceSetMergesWithDistinctPids(t *testing.T) {
	ts := NewTraceSet()
	for _, name := range []string{"b", "a"} {
		tr := ts.New(name)
		tl := vclock.NewTimeline("host")
		sp := tr.Start(tl, "span:"+name)
		tl.Charge("w", 10)
		sp.End()
	}
	var b strings.Builder
	if err := ts.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var events []chromeEvent
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("merged trace does not parse: %v", err)
	}
	pids := map[int]string{}
	for _, e := range events {
		if e.Ph == "M" && e.Name == "process_name" {
			pids[e.Pid] = e.Args["name"]
		}
	}
	// Sorted by name: "a" gets pid 1, "b" pid 2.
	if pids[1] != "a" || pids[2] != "b" {
		t.Fatalf("pid assignment %v", pids)
	}

	var nilSet *TraceSet
	if nilSet.New("x") != nil || nilSet.Traces() != nil {
		t.Fatal("nil trace set must be inert")
	}
	b.Reset()
	if err := nilSet.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(b.String()) != "[]" {
		t.Fatalf("nil set dump %q", b.String())
	}
}

func TestOutOfOrderEndDoesNotCorruptStack(t *testing.T) {
	tr := NewTrace("q")
	tl := vclock.NewTimeline("host")
	a := tr.Start(tl, "a")
	b := tr.Start(tl, "b")
	a.End() // out of order: a is not innermost
	b.End()
	b.End() // double end is a no-op
	c := tr.Start(tl, "c")
	// b's pop restored a as innermost; a had already ended but that only
	// affects nesting, never panics. c must be at top level or under a — not
	// under b.
	if got := tr.spans[2].parent; got == b.id {
		t.Fatal("stack corrupted: c nested under ended span b")
	}
	c.End()
}
