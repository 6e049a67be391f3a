// Package lib holds one case per rule of the test-only scan.
package lib

// OnlyTested is used by a test alone: a finding.
func OnlyTested() int { return 1 }

// Reference is used by a test alone, and the fixture's allow table names it.
func Reference() int { return 2 }

// Report has a field only a test reads, a knob only a test writes (and
// reads), a field another package reads, and one only its own update reads.
type Report struct {
	Written int // written here, read by a test alone: a finding
	Knob    int // written by a test alone: out of scope
	Read    int // read by package app
	Peak    int // written here, read by its own update alone: a finding
}

// Run fills a report.
func Run() Report {
	r := Report{Written: 1, Read: 2}
	r.Peak = max(r.Peak, r.Read)
	return r
}

// Shape is a plain interface.
type Shape interface{ Area() int }

// Square satisfies Shape; a test calls Area directly.
type Square struct{}

// Area is exempt: it satisfies Shape.
func (Square) Area() int { return 1 }

// Front is a generic interface.
type Front[T any] interface{ Pick() T }

// Queue satisfies Front[int]; a test calls Pick directly.
type Queue struct{}

// Pick is exempt: it satisfies an instantiation of Front.
func (*Queue) Pick() int { return 3 }

// Drain picks from any front.
func Drain[F Front[int]](f F) int { return f.Pick() }

// Base is embedded in Derived.
type Base struct{ id int }

// Derived embeds Base; a test reads the embedded field.
type Derived struct {
	Base
	tag string
}

// NewDerived writes both of Derived's fields.
func NewDerived() Derived { return Derived{Base: Base{id: 1}, tag: "t"} }

// Config is tagged: its fields are read by reflection.
type Config struct {
	Name string `json:"name"`
}

// Default writes Config's field; only a test reads it directly.
func Default() Config { return Config{Name: "x"} }

// All uses every declaration above but OnlyTested and Reference.
func All() int {
	d := NewDerived()
	_ = Default()
	return Run().Read + Drain(&Queue{}) + len(d.tag) + d.id
}
