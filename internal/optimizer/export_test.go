package optimizer

// MemoCap is the plan memo's bound, for the eviction test.
const MemoCap = memoCap
