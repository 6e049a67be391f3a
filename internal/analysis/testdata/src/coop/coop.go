// Package coop is the chargecheck violation/ok fixture: host-side functions
// that stream device batches or read flash, with and without accounting.
package coop

import (
	"device"
	"exec"
	"flash"

	"vclock"
)

// fetchCharged charges the host timeline for the stream it drives: the
// direct-charge form.
func fetchCharged(tl *vclock.Timeline, dev *device.Device) error {
	tl.Charge("host.fetch", 1)
	return dev.Produce(4, func(b device.Batch) error { return nil })
}

// fetchViaHelper routes the transfer through a fact-carrying helper from
// another package: covered by exec.ChargedTransfer's imported fact.
func fetchViaHelper(f *flash.Flash, p []byte) (int, error) {
	return exec.ChargedTransfer(f, p)
}

// fetchUncharged streams device batches with no accounting anywhere: the
// stub device does not charge and neither does this function.
func fetchUncharged(dev *device.Device) error {
	return dev.Produce(4, func(b device.Batch) error { return nil }) // want `modeled I/O device execution Device\.Produce in fetchUncharged, which never charges`
}

// readThrough uses the charging flash surface: flash.ReadAt's fact covers it.
func readThrough(f *flash.Flash, p []byte) (int, error) {
	return f.ReadAt(p, 0)
}

// readRaw moves modeled bytes through the non-charging mmap view with no
// local charge: flagged.
func readRaw(m *flash.Mmap, p []byte) (int, error) {
	return m.ReadAt(p, 0) // want `modeled I/O flash access Mmap\.ReadAt in readRaw, which never charges`
}

// readRawCharged performs the same raw read but accounts for it locally.
func readRawCharged(tl *vclock.Timeline, m *flash.Mmap, p []byte) (int, error) {
	tl.Charge("flash.read", vclock.Duration(len(p)))
	return m.ReadAt(p, 0)
}

// drain invokes a batch emit callback without charging anything: the
// emission surface itself is modeled I/O.
func drain(emit func(device.Batch) error) error {
	return emit(device.Batch{}) // want `modeled I/O batch emit emit in drain, which never charges`
}

// drainCharged is the corrected form: the host pays for the transfer.
func drainCharged(tl *vclock.Timeline, emit func(device.Batch) error) error {
	tl.Charge("host.transfer", 1)
	return emit(device.Batch{})
}

// drainOnOneBranch charges on one branch and emits on the other. The rule
// is a containment check, not a path analysis: the charge anywhere in the
// function excuses the emission, so nothing is reported.
func drainOnOneBranch(tl *vclock.Timeline, emit func(device.Batch) error, charge bool) error {
	if charge {
		tl.Charge("host.transfer", 1)
		return nil
	}
	return emit(device.Batch{})
}

// chargeTransfer is a same-package charging helper.
func chargeTransfer(tl *vclock.Timeline) {
	tl.Charge("host.transfer", 1)
}

// drainViaLocalHelper charges only through chargeTransfer: the
// intra-package fixpoint carries the helper's charge to its caller.
func drainViaLocalHelper(tl *vclock.Timeline, emit func(device.Batch) error) error {
	chargeTransfer(tl)
	return emit(device.Batch{})
}
