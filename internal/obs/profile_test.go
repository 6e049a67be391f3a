package obs

import (
	"strings"
	"testing"

	"hybridndp/internal/hw"
	"hybridndp/internal/vclock"
)

// buildAccounts simulates two timelines the way the executor does: every
// charge advances the clock and books to a category, so the account sums equal
// the end instants by construction.
func buildAccounts() (host, dev map[string]vclock.Duration, elapsed, devElapsed vclock.Duration) {
	hostTL := vclock.NewTimeline("host")
	devTL := vclock.NewTimeline("device")
	hostTL.Charge(hw.CatNDPSetup, 100)
	devTL.Charge(hw.CatNDPSetup, 100)
	devTL.Charge(hw.CatFlashLoad, 400)
	devTL.Charge(hw.CatEval, 200)
	devTL.Charge(hw.CatHashBuild, 50)
	devTL.Charge(hw.CatWaitSlots, 80)
	hostTL.Charge(hw.CatWaitInitial, 300)
	hostTL.Charge(hw.CatTransfer, 120)
	hostTL.Charge(hw.CatHashBuild, 90)
	hostTL.Charge(hw.CatHashProbe, 60)
	hostTL.Charge(hw.CatWaitFetch, 40)
	hostTL.Charge(hw.CatGroup, 30)
	return hostTL.Account(), devTL.Account(),
		vclock.Duration(hostTL.Now()), vclock.Duration(devTL.Now())
}

func TestProfilePhasesAndReconciliation(t *testing.T) {
	host, dev, elapsed, devElapsed := buildAccounts()
	p := Profile("8d", "H2", host, dev, elapsed, devElapsed)
	if !p.Reconciles() {
		t.Fatal("phase totals must partition the timelines")
	}
	checks := []struct {
		got  vclock.Duration
		want vclock.Duration
		name string
	}{
		{p.HostPhase(PhaseSetup), 100, "host setup"},
		{p.HostPhase(PhaseStallInitial), 300, "stall-initial"},
		{p.HostPhase(PhaseStallFetch), 40, "stall-fetch"},
		{p.HostPhase(PhaseTransfer), 120, "transfer"},
		{p.HostPhase(PhaseHostBuild), 90, "host-build"},
		{p.HostPhase(PhaseHostProbe), 60, "host-probe"},
		{p.HostPhase(PhaseHostProcess), 30, "host-process"},
		{p.DevicePhase(PhaseSetup), 100, "device setup"},
		{p.DevicePhase(PhaseDeviceScan), 600, "device-scan"},
		{p.DevicePhase(PhaseDeviceJoin), 50, "device-join"},
		{p.DevicePhase(PhaseSlotWait), 80, "slot-wait"},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestProfileReconcilesRejectsMissingTime(t *testing.T) {
	host, dev, elapsed, devElapsed := buildAccounts()
	p := Profile("q", "H1", host, dev, elapsed+1000, devElapsed)
	if p.Reconciles() {
		t.Fatal("missing host time must fail reconciliation")
	}
	p = Profile("q", "H1", host, dev, elapsed, devElapsed-10)
	if p.Reconciles() {
		t.Fatal("missing device time must fail reconciliation")
	}
}

func TestHostOnlyProfileHasNoDeviceTable(t *testing.T) {
	host, _, elapsed, _ := buildAccounts()
	p := Profile("q", "native", host, nil, elapsed, 0)
	if p.Device != nil {
		t.Fatal("host-only profile must not fabricate a device table")
	}
	if !p.Reconciles() {
		t.Fatal("host-only profile must reconcile")
	}
	if p.DevicePhase(PhaseDeviceScan) != 0 {
		t.Fatal("missing device phases must read zero")
	}
}

func TestUnknownCategoriesLandInCatchAll(t *testing.T) {
	host := map[string]vclock.Duration{"mystery": 10}
	dev := map[string]vclock.Duration{"mystery": 20}
	p := Profile("q", "H1", host, dev, 10, 20)
	if p.HostPhase(PhaseHostProcess) != 10 {
		t.Fatal("unknown host category must land in host-process")
	}
	if p.DevicePhase(PhaseDeviceOther) != 20 {
		t.Fatal("unknown device category must land in device-other")
	}
	if !p.Reconciles() {
		t.Fatal("catch-all phases must keep the partition complete")
	}
}

func TestWriteTextRendersBothTables(t *testing.T) {
	host, dev, elapsed, devElapsed := buildAccounts()
	p := Profile("8d", "H2", host, dev, elapsed, devElapsed)
	var b strings.Builder
	if err := p.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"profile 8d [H2]", "host:", "device:", "slot-wait", "stall-initial"} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteText missing %q:\n%s", want, out)
		}
	}
}
