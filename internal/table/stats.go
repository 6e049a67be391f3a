package table

import (
	"sync"

	"hybridndp/internal/lsm"
	"hybridndp/internal/num"
)

// Stats holds the optimizer statistics of one table, collected out of index
// samples as in MyRocks (paper §3: "we rely on the standard MySQL
// techniques, which in case of MyRocks are collected out of index samples").
// Selectivities estimated from the sample are deliberately imperfect,
// matching the paper's setup where optimal selectivities are not injected.
type Stats struct {
	RowCount  int64
	RowBytes  int
	Sample    []Record
	NDV       map[string]int64 // column → distinct values (sample-scaled)
	IntMinMax map[string][2]int32

	rowsOnce sync.Once
	rows     [][]byte
}

// SampleRows returns the sample's raw row views, parallel to Sample — the
// form compiled batch predicates filter. Built on first use: loading a table
// collects its statistics, planning against them comes later or never.
func (s *Stats) SampleRows() [][]byte {
	s.rowsOnce.Do(func() {
		s.rows = make([][]byte, len(s.Sample))
		for i, r := range s.Sample {
			s.rows[i] = r.Data
		}
	})
	return s.rows
}

const maxSampleRows = 2048

// CollectStats samples the primary index and derives the statistics. The
// collection itself is maintenance work and is not charged.
func (t *Table) CollectStats() *Stats {
	t.mu.RLock()
	if t.stats != nil {
		s := t.stats
		t.mu.RUnlock()
		return s
	}
	t.mu.RUnlock()

	rows := t.RowCount()
	stride := int64(1)
	if rows > maxSampleRows {
		stride = rows / maxSampleRows
	}
	st := &Stats{
		RowCount:  rows,
		RowBytes:  t.Schema.RowBytes(),
		NDV:       make(map[string]int64),
		IntMinMax: make(map[string][2]int32),
	}
	distinct := make(map[string]map[Value]struct{})
	for _, c := range t.Schema.Columns {
		distinct[c.Name] = make(map[Value]struct{})
	}
	var i int64
	for it := t.ScanAll(lsm.Access{}); it.Valid(); it.Next() {
		if i%stride == 0 && len(st.Sample) < maxSampleRows {
			data := append([]byte(nil), it.Entry().Value...)
			rec := Record{Schema: t.Schema, Data: data}
			st.Sample = append(st.Sample, rec)
			for ci, c := range t.Schema.Columns {
				v := rec.Get(ci)
				if v.Null {
					continue
				}
				distinct[c.Name][v] = struct{}{}
				if c.Type == Int32 {
					mm, ok := st.IntMinMax[c.Name]
					if !ok {
						st.IntMinMax[c.Name] = [2]int32{v.Int, v.Int}
					} else {
						if v.Int < mm[0] {
							mm[0] = v.Int
						}
						if v.Int > mm[1] {
							mm[1] = v.Int
						}
						st.IntMinMax[c.Name] = mm
					}
				}
			}
		}
		i++
	}
	// Scale distinct counts from the sample to the table: if nearly every
	// sampled value is distinct, assume the column is key-like.
	n := int64(len(st.Sample))
	for col, set := range distinct {
		d := int64(len(set))
		if n > 0 && d*10 >= n*9 { // ≥90% distinct in sample → scale up
			d = d * rows / num.MaxI64(n, 1)
		}
		if d < 1 {
			d = 1
		}
		st.NDV[col] = d
	}

	t.mu.Lock()
	t.stats = st
	t.mu.Unlock()
	return st
}

// SelectivityOf estimates the fraction of rows matching pred by evaluating it
// over the sample.
func (s *Stats) SelectivityOf(pred func(Record) bool) float64 {
	match := 0
	for _, r := range s.Sample {
		if pred(r) {
			match++
		}
	}
	return s.SelectivityOfMatches(match)
}

// SelectivityOfMatches turns the number of sample rows a predicate matched
// into the selectivity estimate, with Laplace smoothing so zero-match
// predicates keep a small non-zero estimate (as real optimizers do).
func (s *Stats) SelectivityOfMatches(match int) float64 {
	if len(s.Sample) == 0 {
		return 0.1
	}
	return (float64(match) + 0.5) / (float64(len(s.Sample)) + 1.0)
}

// EqSelectivity estimates an equality predicate on col via distinct counts.
func (s *Stats) EqSelectivity(col string) float64 {
	d := s.NDV[col]
	if d <= 0 {
		return 0.1
	}
	return 1.0 / float64(d)
}

// TotalBytes estimates the table's payload size.
func (s *Stats) TotalBytes() int64 { return s.RowCount * int64(s.RowBytes) }
