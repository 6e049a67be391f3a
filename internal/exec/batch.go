package exec

// DefaultBatchSize is the row capacity of one columnar batch. 1024 fixed-width
// row views keep the batch's slice headers and selection vector inside the L2
// cache while amortizing per-batch bookkeeping; the EXPERIMENTS.md batch-size
// sweep picked it from measured wall-clock data.
const DefaultBatchSize = 1024

// batchRows is the row capacity every engine's batches run at. Charges derive
// from accumulated batch counts with the same integer math at every size, so
// virtual time is byte-identical for any value (TestPieceBudgetLaw); only tests
// change it, through SetBatchSize.
var batchRows = DefaultBatchSize

// ColBatch is one fixed-size batch of rows in the engine's columnar
// processing format: row views over the fixed-width record layout plus a
// selection vector naming the rows that survived predicate evaluation, in
// first-occurrence order. Operators communicate batches instead of single
// tuples; rejected rows are never materialized — they are simply absent from
// Sel. Column-major access falls out of the fixed-width layout: column i of
// row r lives at Rows[r][schema.ColumnOffset(i)], so a per-column kernel
// walks one fixed offset across the batch.
type ColBatch struct {
	Rows [][]byte // row views (shared storage, never mutated)
	Sel  []int32  // indices into Rows that passed selection, ascending
}

// Reset empties the batch for reuse, keeping capacity.
func (b *ColBatch) Reset() {
	b.Rows = b.Rows[:0]
	b.Sel = b.Sel[:0]
}

// SelectAll marks every row as selected.
func (b *ColBatch) SelectAll() {
	b.Sel = b.Sel[:0]
	for i := range b.Rows {
		b.Sel = append(b.Sel, int32(i))
	}
}

// Selected appends the selected row views to dst and returns it.
func (b *ColBatch) Selected(dst [][]byte) [][]byte {
	for _, i := range b.Sel {
		dst = append(dst, b.Rows[i])
	}
	return dst
}
