package exec

// ScratchRetainBytes exposes the retention bound to the external tests.
const ScratchRetainBytes = scratchRetainBytes

// PoisonScratchOnRelease makes every Scratch release, until the returned
// restore runs, overwrite what the run left behind once it is rewound: every
// row-view slot (scan batch, view slab, arena blocks — used or not)
// points at one sentinel row of 0xA5 bytes, every tuple slot at a sentinel
// tuple of such rows, and every hash-table key — arena byte or entry word,
// whichever representation the table last held — is flipped. A result or
// report that still aliases scratch memory then reads garbage, and the next
// run on the scratch finds garbage wherever it wrongly trusts a cleared slot.
func PoisonScratchOnRelease() (restore func()) {
	row := make([]byte, 4096)
	for i := range row {
		row[i] = 0xA5
	}
	tuple := make(Tuple, 32)
	for i := range tuple {
		tuple[i] = row
	}
	fill := func(views [][]byte) {
		for i := range views {
			views[i] = row
		}
	}
	onRelease = func(s *Scratch) {
		fill(s.batch.Rows[:cap(s.batch.Rows)])
		fill(s.views[:cap(s.views)])
		for _, b := range s.arena.blocks {
			fill(b)
		}
		tuples := s.tuples[:cap(s.tuples)]
		for i := range tuples {
			tuples[i] = tuple
		}
		for _, t := range s.tabs {
			keys := t.keys[:cap(t.keys)]
			for i := range keys {
				keys[i] ^= 0xFF
			}
			entries := t.entries[:cap(t.entries)]
			for i := range entries {
				entries[i].key ^= ^uint64(0)
			}
		}
	}
	return func() { onRelease = nil }
}
