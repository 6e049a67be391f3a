package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one wall-clock interval around a call into a layer, recorded by the
// benchmark itself (instrumenting inside the packages is a later change).
type span struct {
	Name   string
	Op     string // workload/pass/query — shared by all spans of one op
	Parent int    // index of the enclosing span, -1 at top level
	Start  time.Duration
	End    time.Duration
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced passes pay one pointer test per span site.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int
	op    string
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// setOp names the op that the following spans belong to.
func (r *recorder) setOp(op string) {
	if r != nil {
		r.op = op
	}
}

// begin opens a span nested under the innermost open one.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Op: r.op, Parent: parent, Start: time.Since(r.epoch)})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.epoch)
	r.open = r.open[:len(r.open)-1]
}

// durations returns the length of every span called name, in the unit given
// (time.Microsecond, time.Millisecond).
func (r *recorder) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	return out
}

// selfTimes returns each span's duration minus its children's.
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// selfShare is the share (in %) of the total length of the spans called
// parent that none of their children cover.
func (r *recorder) selfShare(parent string) float64 {
	self := r.selfTimes()
	var own, total time.Duration
	for i, s := range r.spans {
		if s.Name == parent {
			own += self[i]
			total += s.End - s.Start
		}
	}
	return pct(float64(own), float64(total))
}

// countPrefix counts spans whose name starts with any of the prefixes.
func (r *recorder) countPrefix(prefixes ...string) int {
	n := 0
	for _, s := range r.spans {
		for _, p := range prefixes {
			if strings.HasPrefix(s.Name, p) {
				n++
				break
			}
		}
	}
	return n
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// ui.perfetto.dev): complete events in microseconds, the layer as category.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := r.selfTimes()
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		events[i] = event{
			Name: s.Name, Cat: layer, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{
				"id": i, "parent": s.Parent, "op": s.Op,
				"self_us": float64(self[i]) / float64(time.Microsecond),
			},
		}
	}
	data, err := json.Marshal(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
