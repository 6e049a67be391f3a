package lib

import (
	"testing"

	"libtest"
)

func TestCases(t *testing.T) {
	knob := Report{Knob: 4}
	_ = OnlyTested() + Reference() + Run().Written + knob.Knob + Square{}.Area() + (&Queue{}).Pick()
	_ = NewDerived().Base
	_ = Default().Name
	_ = libtest.Helper()
}
