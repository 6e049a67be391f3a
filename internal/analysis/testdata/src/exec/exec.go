// Package exec is a chargecheck fixture of charging helpers: functions that
// either charge a timeline directly or route through the charging flash
// surface. The analyzer exports a charges fact for each, which the coop
// fixture imports — the cross-package half of the fact round-trip.
package exec

import (
	"flash"

	"vclock"
)

// ChargedTransfer reads through the charging flash channel; flash.ReadAt's
// exported fact covers this function, which in turn earns its own fact.
func ChargedTransfer(f *flash.Flash, p []byte) (int, error) {
	return f.ReadAt(p, 0)
}

// Forward charges the transfer cost directly.
func Forward(tl *vclock.Timeline, p []byte) {
	tl.Charge("exec.forward", vclock.Duration(len(p)))
}
