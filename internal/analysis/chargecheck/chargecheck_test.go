package chargecheck_test

import (
	"testing"

	"hybridndp/internal/analysis/analysistest"
	"hybridndp/internal/analysis/chargecheck"
)

// The three packages are analyzed in dependency order (flash, exec, coop), so
// the charges facts exported for flash.ReadAt and exec.ChargedTransfer are
// imported when the coop fixtures are checked — the cross-package half of
// the analyzer is exercised, not just the intra-package fixpoint.
func TestChargecheck(t *testing.T) {
	analysistest.Run(t, "../testdata", chargecheck.Analyzer, "flash", "exec", "coop")
}
