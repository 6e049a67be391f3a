// Package obs is the virtual-time observability subsystem: structured
// tracing, metrics and per-query execution profiles for the cooperative
// pipeline. The paper's headline artifacts (Fig. 17 batch timeline, Table 4
// stall accounting) are observability outputs; obs makes them a uniform,
// deterministic layer instead of ad-hoc report fields.
//
// Everything in this package is pinned to the simulator's *virtual* clocks
// (vclock.Timeline): a span's start and end are virtual instants, a profile's
// phases sum to the query's virtual elapsed time, and no wall-clock source is
// read anywhere (the hybridlint wallclock analyzer enforces this — obs is a
// simulation package). Two runs of the same seeded query therefore produce
// byte-identical trace and metrics dumps; determinism is a tested invariant,
// not an accident.
//
// The three parts:
//
//   - Trace / Span (this file): structured spans with parent nesting per
//     timeline, a Chrome trace_event JSON exporter (load trace.json in
//     chrome://tracing or https://ui.perfetto.dev) and a plain-text flame
//     report.
//   - Registry / Counter / Gauge / Histogram (metrics.go): race-safe process
//     metrics with a sorted, byte-stable text dump.
//   - QueryProfile (profile.go): aggregation of a query's timeline accounts
//     into the paper's phase structure with exact reconciliation against the
//     end-to-end virtual runtime.
//
// All entry points are nil-safe: a nil *Trace or nil *Registry turns every
// recording call into a cheap no-op, so instrumented hot paths pay only a
// pointer test when observability is off (BenchmarkTracerOverhead pins the
// bound).
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hybridndp/internal/vclock"
)

// Attr is one span attribute. Values are stored pre-formatted so the dump is
// byte-stable by construction.
type Attr struct {
	Key string
	Val string
}

// Span is one traced region of virtual time on a single timeline.
type Span struct {
	tr       *Trace
	tl       *vclock.Timeline
	id       int
	parent   int // span id of the enclosing open span on the same timeline, -1 at top level
	name     string
	timeline string
	start    vclock.Time
	end      vclock.Time
	attrs    []Attr
	ended    bool
}

// Trace collects the spans of one query execution. A Trace is owned by the
// single goroutine simulating the query (the cooperative pipeline interleaves
// host and device work on one goroutine), but it is mutex-guarded anyway so
// aggregating layers can read it concurrently with late writers.
type Trace struct {
	name string

	mu    sync.Mutex
	spans []*Span        // guarded by mu
	open  map[string]int // guarded by mu; timeline name → index of innermost open span
}

// NewTrace starts an empty trace labelled with the query/run name.
func NewTrace(name string) *Trace {
	return &Trace{name: name, open: make(map[string]int)}
}

// Start opens a span named name on tl's timeline, starting at the timeline's
// current virtual instant. The span nests under the innermost span still open
// on the same timeline. Nil-safe: a nil trace returns a nil span and records
// nothing.
func (t *Trace) Start(tl *vclock.Timeline, name string) *Span {
	if t == nil || tl == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &Span{
		tr:       t,
		tl:       tl,
		id:       len(t.spans),
		parent:   -1,
		name:     name,
		timeline: tl.Name(),
		start:    tl.Now(),
	}
	if idx, ok := t.open[sp.timeline]; ok {
		sp.parent = t.spans[idx].id
	}
	t.spans = append(t.spans, sp)
	t.open[sp.timeline] = sp.id
	return sp
}

// Attr attaches a pre-formatted attribute and returns the span for chaining.
func (s *Span) Attr(key, val string) *Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
	s.tr.mu.Unlock()
	return s
}

// AttrInt is Attr for integer values. A nil span formats nothing, so
// untraced runs pay no conversion.
func (s *Span) AttrInt(key string, val int64) *Span {
	if s == nil {
		return nil
	}
	return s.Attr(key, strconv.FormatInt(val, 10))
}

// End closes the span at its timeline's current virtual instant and pops it
// from the nesting stack. Ending an already-ended or nil span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.end = s.tl.Now()
	// Restore the parent as the innermost open span. Spans end LIFO per
	// timeline in a well-nested trace; guard anyway so a stray out-of-order
	// End cannot corrupt the stack.
	if idx, ok := s.tr.open[s.timeline]; ok && idx == s.id {
		if s.parent >= 0 {
			s.tr.open[s.timeline] = s.parent
		} else {
			delete(s.tr.open, s.timeline)
		}
	}
}

// Len reports the number of recorded spans.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// sortedAttrs returns the span's attributes sorted by key (duplicate keys keep
// insertion order), so every dump is byte-stable.
func (s *Span) sortedAttrs() []Attr {
	out := make([]Attr, len(s.attrs))
	copy(out, s.attrs)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// usec renders a virtual instant/duration as Chrome's microsecond unit with a
// fixed number of decimals, so output bytes do not depend on float printing
// subtleties across values.
func usec(ns float64) string {
	return strconv.FormatFloat(ns/1e3, 'f', 3, 64)
}

// WriteChromeTrace serializes the trace in Chrome trace_event JSON (array
// form): one complete ("X") event per span with virtual-microsecond
// timestamps, pid pid, and the timeline name as tid metadata. Load the file
// in chrome://tracing or Perfetto to see host and device tracks overlapping,
// with slot-stall and host-wait spans making every rendezvous explicit.
//
// The output is deterministic: spans emit in creation order with sorted
// attributes, and all numbers use fixed formatting.
func (t *Trace) WriteChromeTrace(w io.Writer, pid int) error {
	if t == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	b.WriteString("[\n")
	first := true
	emit := func(line string) {
		if !first {
			b.WriteString(",\n")
		}
		first = false
		b.WriteString(line)
	}
	// tid assignment: timelines in first-use order (host before device in
	// every execution path, but derived from the data, not assumed).
	tids := map[string]int{}
	order := []string{}
	for _, sp := range t.spans {
		if _, ok := tids[sp.timeline]; !ok {
			tids[sp.timeline] = len(order)
			order = append(order, sp.timeline)
		}
	}
	emit(fmt.Sprintf(`  {"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`,
		pid, strconv.Quote(t.name)))
	for i, tl := range order {
		emit(fmt.Sprintf(`  {"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
			pid, i, strconv.Quote(tl)))
	}
	for _, sp := range t.spans {
		end := sp.end
		if !sp.ended {
			end = sp.start
		}
		var args strings.Builder
		for i, a := range sp.sortedAttrs() {
			if i > 0 {
				args.WriteString(",")
			}
			fmt.Fprintf(&args, "%s:%s", strconv.Quote(a.Key), strconv.Quote(a.Val))
		}
		emit(fmt.Sprintf(`  {"name":%s,"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"args":{%s}}`,
			strconv.Quote(sp.name), pid, tids[sp.timeline],
			usec(float64(sp.start)), usec(float64(end.Sub(sp.start))), args.String()))
	}
	b.WriteString("\n]\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteFlame renders the span tree as an indented plain-text flame report,
// one block per timeline: each line shows the span's virtual duration, its
// share of the timeline's total span and its attributes. Deterministic by the
// same rules as the Chrome exporter.
func (t *Trace) WriteFlame(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]*Span{} // parent id (-1 = roots) → spans, creation order
	var timelines []string
	seen := map[string]bool{}
	for _, sp := range t.spans {
		children[sp.parent] = append(children[sp.parent], sp)
		if !seen[sp.timeline] {
			seen[sp.timeline] = true
			timelines = append(timelines, sp.timeline)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s (%d spans)\n", t.name, len(t.spans))
	for _, tl := range timelines {
		var total vclock.Duration
		for _, sp := range children[-1] {
			if sp.timeline == tl {
				total += sp.end.Sub(sp.start)
			}
		}
		fmt.Fprintf(&b, "%s (%s total across root spans)\n", tl, total)
		var walk func(sp *Span, depth int)
		walk = func(sp *Span, depth int) {
			d := sp.end.Sub(sp.start)
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(d) / float64(total)
			}
			fmt.Fprintf(&b, "  %s%-*s %12s %6.2f%%", strings.Repeat("  ", depth),
				32-2*depth, sp.name, d.String(), pct)
			for _, a := range sp.sortedAttrs() {
				fmt.Fprintf(&b, " %s=%s", a.Key, a.Val)
			}
			b.WriteString("\n")
			for _, c := range children[sp.id] {
				walk(c, depth+1)
			}
		}
		for _, sp := range children[-1] {
			if sp.timeline == tl {
				walk(sp, 0)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// TraceSet is a race-safe collection of per-query traces, used by the
// concurrent scheduler: each admitted query records into its own Trace, and
// the set merges them into one Chrome trace (one pid per query). Nil-safe:
// a nil set hands out nil traces.
type TraceSet struct {
	mu     sync.Mutex
	traces []*Trace // guarded by mu
}

// NewTraceSet returns an empty trace set.
func NewTraceSet() *TraceSet { return &TraceSet{} }

// New registers and returns a fresh trace. Registration order follows
// completion of the call, which under concurrent serving is scheduling-
// dependent; per-trace content stays deterministic.
func (ts *TraceSet) New(name string) *Trace {
	if ts == nil {
		return nil
	}
	tr := NewTrace(name)
	ts.mu.Lock()
	ts.traces = append(ts.traces, tr)
	ts.mu.Unlock()
	return tr
}

// Traces snapshots the registered traces in registration order.
func (ts *TraceSet) Traces() []*Trace {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]*Trace, len(ts.traces))
	copy(out, ts.traces)
	return out
}

// WriteChromeTrace merges every registered trace into one Chrome trace_event
// JSON document, one pid per trace. Traces are sorted by name (then
// registration order) so the merged dump does not depend on goroutine
// interleaving.
func (ts *TraceSet) WriteChromeTrace(w io.Writer) error {
	if ts == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	traces := ts.Traces()
	sort.SliceStable(traces, func(i, j int) bool { return traces[i].name < traces[j].name })
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, tr := range traces {
		var one strings.Builder
		if err := tr.WriteChromeTrace(&one, i+1); err != nil {
			return err
		}
		// Strip the per-trace array brackets and splice the events in.
		body := strings.TrimSpace(one.String())
		body = strings.TrimPrefix(body, "[")
		body = strings.TrimSuffix(body, "]")
		body = strings.TrimSpace(body)
		if body == "" {
			continue
		}
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "  "+body); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]\n")
	return err
}
