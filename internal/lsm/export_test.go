package lsm

import (
	"bytes"
	"fmt"
)

// SanityCheck verifies structural invariants: C1 may overlap, lower levels
// must not; every lower level is sorted by min key.
func (t *Tree) SanityCheck() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for li, lvl := range t.levels {
		for i := 1; i < len(lvl); i++ {
			if bytes.Compare(lvl[i-1].MaxKey(), lvl[i].MinKey()) >= 0 {
				return fmt.Errorf("lsm: level C%d SSTs %d,%d overlap (%q ≥ %q)",
					li+2, i-1, i, lvl[i-1].MaxKey(), lvl[i].MinKey())
			}
		}
	}
	return nil
}
