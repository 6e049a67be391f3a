package lsm

// ImmSlots returns every slot of the tree's immutable-memtable list up to its
// capacity, the vacated ones past its length included.
func ImmSlots(t *Tree) []*MemTable {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.imm[:cap(t.imm)]
}
