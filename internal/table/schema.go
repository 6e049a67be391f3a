// Package table implements the relational layer over nKV: schemas with the
// paper's fixed-width record layout (4-byte integers, padded CHAR fields,
// 4-byte alignment as required by the COSMOS+ board), the record codec,
// primary and secondary index maintenance in separate column families, and
// the index-sample statistics the cost model's cardinality estimation uses.
package table

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// ColType is a column's data type.
type ColType int

// Column types. The JOB port uses fixed-size byte lengths for
// character-based values (string padding / trimming, per the paper §5).
const (
	Int32 ColType = iota
	Char
)

func (t ColType) String() string {
	switch t {
	case Int32:
		return "INT32"
	case Char:
		return "CHAR"
	default:
		return fmt.Sprintf("ColType(%d)", int(t))
	}
}

// Column describes one attribute.
type Column struct {
	Name     string
	Type     ColType
	Size     int // payload bytes: 4 for Int32, the fixed length for Char
	Nullable bool
}

func align4(n int) int { return (n + 3) &^ 3 }

// storedSize is the 4-byte-aligned on-record footprint of the column.
func (c Column) storedSize() int {
	if c.Type == Int32 {
		return 4
	}
	return align4(c.Size)
}

// SecondaryIndex declares a secondary index over one column. As in
// MyRocks/RocksDB, every secondary index is kept in its own column family /
// LSM tree whose key combines the secondary value with the primary key.
type SecondaryIndex struct {
	Name   string
	Column string
}

// Schema is one table definition.
type Schema struct {
	Name             string
	Columns          []Column
	PrimaryKey       string // must name an Int32 column
	SecondaryIndexes []SecondaryIndex

	colIdx   map[string]int
	offsets  []int
	nullOff  int
	rowBytes int
	pkIdx    int
}

// NewSchema validates and finalizes a table definition, computing the
// fixed-width record layout.
func NewSchema(name string, cols []Column, pk string, secondary ...SecondaryIndex) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("table: schema needs a name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("table %s: no columns", name)
	}
	s := &Schema{Name: name, Columns: cols, PrimaryKey: pk, SecondaryIndexes: secondary,
		colIdx: make(map[string]int, len(cols)), pkIdx: -1}
	// Null bitmap first, padded to 4 bytes.
	s.nullOff = 0
	bitmap := align4((len(cols) + 7) / 8)
	off := bitmap
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("table %s: column %d unnamed", name, i)
		}
		if _, dup := s.colIdx[c.Name]; dup {
			return nil, fmt.Errorf("table %s: duplicate column %q", name, c.Name)
		}
		if c.Type == Char && c.Size <= 0 {
			return nil, fmt.Errorf("table %s: CHAR column %q needs a positive size", name, c.Name)
		}
		s.colIdx[c.Name] = i
		s.offsets = append(s.offsets, off)
		off += c.storedSize()
		if c.Name == pk {
			if c.Type != Int32 {
				return nil, fmt.Errorf("table %s: primary key %q must be INT32", name, pk)
			}
			if c.Nullable {
				return nil, fmt.Errorf("table %s: primary key %q must not be nullable", name, pk)
			}
			s.pkIdx = i
		}
	}
	if s.pkIdx < 0 {
		return nil, fmt.Errorf("table %s: primary key %q is not a column", name, pk)
	}
	s.rowBytes = off
	seen := map[string]bool{}
	for _, si := range secondary {
		if _, ok := s.colIdx[si.Column]; !ok {
			return nil, fmt.Errorf("table %s: secondary index %q over unknown column %q", name, si.Name, si.Column)
		}
		if si.Name == "" || seen[si.Name] {
			return nil, fmt.Errorf("table %s: secondary index needs a unique name (%q)", name, si.Name)
		}
		seen[si.Name] = true
	}
	return s, nil
}

// MustSchema is NewSchema for static definitions.
func MustSchema(name string, cols []Column, pk string, secondary ...SecondaryIndex) *Schema {
	s, err := NewSchema(name, cols, pk, secondary...)
	if err != nil {
		panic(err)
	}
	return s
}

// RowBytes reports the fixed record size.
func (s *Schema) RowBytes() int { return s.rowBytes }

// ColumnIndex resolves a column name, or -1.
func (s *Schema) ColumnIndex(name string) int {
	if i, ok := s.colIdx[name]; ok {
		return i
	}
	return -1
}

// Column returns the definition of the named column.
func (s *Schema) ColumnByName(name string) (Column, bool) {
	i := s.ColumnIndex(name)
	if i < 0 {
		return Column{}, false
	}
	return s.Columns[i], true
}

// ColumnOffset reports the byte offset of column i in the fixed-width record
// layout. Vectorized kernels use it to read one column across a batch of row
// views without decoding Values; i must be a valid column index.
func (s *Schema) ColumnOffset(i int) int { return s.offsets[i] }

// NullBit reports the null-bitmap byte index and bit mask testing whether
// column i is NULL (row[byteIdx]&mask != 0), the batch-kernel form of
// Record.IsNull.
func (s *Schema) NullBit(i int) (byteIdx int, mask byte) {
	return s.nullOff + i/8, 1 << (i % 8)
}

// ColumnStoredBytes reports the aligned on-record footprint of one column (0
// for a column the schema does not have).
func (s *Schema) ColumnStoredBytes(name string) int {
	i := s.ColumnIndex(name)
	if i < 0 {
		return 0
	}
	return s.Columns[i].storedSize()
}

// ProjWidth is the projected row width of a scan returning the columns proj:
// the sum of their aligned stored widths (the whole row when proj is empty —
// full projection; 4 bytes when none of them is stored). Execution sizes
// tuples and the cost model prices projection bytes (tbl_pbn) with it.
func (s *Schema) ProjWidth(proj []string) int64 {
	if len(proj) == 0 {
		return int64(s.rowBytes)
	}
	var w int64
	for _, c := range proj {
		w += int64(s.ColumnStoredBytes(c))
	}
	if w == 0 {
		w = 4
	}
	return w
}

// Value is one typed column value.
type Value struct {
	Null bool
	Int  int32
	Str  string
	IsI  bool
}

// IntVal and StrVal build values.
func IntVal(v int32) Value { return Value{Int: v, IsI: true} }

// StrVal builds a string value.
func StrVal(v string) Value { return Value{Str: v} }

// NullVal builds a NULL.
func NullVal() Value { return Value{Null: true} }

func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	if v.IsI {
		return fmt.Sprint(v.Int)
	}
	return v.Str
}

// Record is a decoded view over one fixed-width row.
type Record struct {
	Schema *Schema
	Data   []byte
}

// IsNull reports whether column i is NULL.
func (r Record) IsNull(i int) bool {
	byteIdx := i / 8
	return r.Data[r.Schema.nullOff+byteIdx]&(1<<(i%8)) != 0
}

// Get returns column i as a typed value.
func (r Record) Get(i int) Value {
	if i < 0 || i >= len(r.Schema.Columns) {
		return NullVal()
	}
	if r.IsNull(i) {
		return NullVal()
	}
	c := r.Schema.Columns[i]
	off := r.Schema.offsets[i]
	if c.Type == Int32 {
		return IntVal(int32(binary.LittleEndian.Uint32(r.Data[off:])))
	}
	return StrVal(string(TrimNul(r.Data[off : off+c.Size])))
}

// TrimNul strips the NUL padding of a CHAR payload a word at a time: whole
// zero words fall off the end, the first non-zero one says how many of its
// high (trailing) bytes are padding. Embedded NULs stay.
func TrimNul(b []byte) []byte {
	end := len(b)
	for end >= 8 {
		if w := binary.LittleEndian.Uint64(b[end-8:]); w != 0 {
			return b[:end-bits.LeadingZeros64(w)/8]
		}
		end -= 8
	}
	for end > 0 && b[end-1] == 0 {
		end--
	}
	return b[:end]
}

// GetByName returns the named column's value.
func (r Record) GetByName(name string) Value { return r.Get(r.Schema.ColumnIndex(name)) }

// AppendColKey appends column i's join-key encoding to dst without decoding
// the value: 'i' + big-endian int32 + 0x00 for integers, 's' + the
// NUL-trimmed character payload + 0x00 for CHAR columns — byte-identical to
// encoding Get(i) through the executor's value-key codec, with no string
// allocation. ok is false (dst unchanged) when the column is NULL or i is out
// of range; the caller decides how NULL keys behave (joins skip the tuple,
// grouping encodes an empty marker).
func (r Record) AppendColKey(dst []byte, i int) ([]byte, bool) {
	if i < 0 || i >= len(r.Schema.Columns) || r.IsNull(i) {
		return dst, false
	}
	c := r.Schema.Columns[i]
	off := r.Schema.offsets[i]
	if c.Type == Int32 {
		v := int32(binary.LittleEndian.Uint32(r.Data[off:]))
		return append(dst, 'i', byte(v>>24), byte(v>>16), byte(v>>8), byte(v), 0), true
	}
	dst = append(dst, 's')
	dst = append(dst, TrimNul(r.Data[off:off+c.Size])...)
	return append(dst, 0), true
}

// PK returns the record's primary key.
func (r Record) PK() int32 { return r.Schema.rowPK(r.Data) }

// AppendRow appends the row built from values in column order to dst and
// returns the extended slice; on error dst comes back unchanged. Strings
// longer than the column size are trimmed; shorter ones padded (paper §5
// workload notes). With a large enough dst it allocates nothing.
func (s *Schema) AppendRow(dst []byte, vals []Value) ([]byte, error) {
	if len(vals) != len(s.Columns) {
		return dst, fmt.Errorf("table %s: AppendRow got %d values for %d columns", s.Name, len(vals), len(s.Columns))
	}
	in := dst
	dst = append(dst, make([]byte, s.rowBytes)...)
	row := dst[len(in):]
	for i, v := range vals {
		c := s.Columns[i]
		if v.Null {
			if !c.Nullable {
				return in, fmt.Errorf("table %s: NULL in non-nullable column %q", s.Name, c.Name)
			}
			row[s.nullOff+i/8] |= 1 << (i % 8)
			continue
		}
		off := s.offsets[i]
		if c.Type == Int32 {
			if !v.IsI {
				return in, fmt.Errorf("table %s: column %q wants INT32, got string", s.Name, c.Name)
			}
			binary.LittleEndian.PutUint32(row[off:], uint32(v.Int))
			continue
		}
		str := v.Str
		if v.IsI {
			return in, fmt.Errorf("table %s: column %q wants CHAR, got int", s.Name, c.Name)
		}
		if len(str) > c.Size {
			str = str[:c.Size] // trim longer values
		}
		copy(row[off:off+c.Size], str)
	}
	return dst, nil
}

// EncodePK renders a primary key as a sortable big-endian key with the sign
// bit flipped so negative keys order before positive ones.
func EncodePK(v int32) []byte { return AppendPK(make([]byte, 0, 4), v) }

// AppendPK appends EncodePK(v) to dst.
func AppendPK(dst []byte, v int32) []byte {
	return binary.BigEndian.AppendUint32(dst, uint32(v)^0x80000000)
}

// DecodePK reverses EncodePK.
func DecodePK(k []byte) int32 {
	return int32(binary.BigEndian.Uint32(k) ^ 0x80000000)
}

// rowPK reads the primary key out of an encoded row (the PK column is never
// NULL).
func (s *Schema) rowPK(row []byte) int32 {
	return int32(binary.LittleEndian.Uint32(row[s.offsets[s.pkIdx]:]))
}

// appendIndexKey appends the key of column ci's secondary-index entry for an
// encoded row: the sortable secondary value followed by the primary key (paper
// §2.2: "a key in the secondary index combines ... with the key of the primary
// index"). The value is 0 for NULL (NULLs sort first), else 1 and either the
// big-endian sign-flipped integer or the column's stored Size bytes, which
// AppendRow has already trimmed and NUL-padded. This is the one encoder of
// stored index keys; AppendSecondaryPrefix encodes the same value prefix from
// a Value for seeks.
func (s *Schema) appendIndexKey(dst []byte, ci int, row []byte) []byte {
	c, off := s.Columns[ci], s.offsets[ci]
	switch {
	case row[s.nullOff+ci/8]&(1<<(ci%8)) != 0:
		dst = append(dst, 0)
	case c.Type == Int32:
		dst = AppendPK(append(dst, 1), int32(binary.LittleEndian.Uint32(row[off:])))
	default:
		dst = append(append(dst, 1), row[off:off+c.Size]...)
	}
	return AppendPK(dst, s.rowPK(row))
}

// AppendSecondaryPrefix appends the key prefix matching all entries with
// secondary value v (for equality seeks over the index) to dst: the value part
// of the key appendIndexKey stores for a row holding v.
func (s *Schema) AppendSecondaryPrefix(dst []byte, col string, v Value) ([]byte, error) {
	c, ok := s.ColumnByName(col)
	if !ok {
		return nil, fmt.Errorf("table %s: unknown secondary column %q", s.Name, col)
	}
	switch {
	case v.Null:
		return append(dst, 0), nil
	case c.Type == Int32:
		return AppendPK(append(dst, 1), v.Int), nil
	default:
		str := v.Str
		if len(str) > c.Size {
			str = str[:c.Size]
		}
		dst = append(append(dst, 1), str...)
		for i := len(str); i < c.Size; i++ {
			dst = append(dst, 0)
		}
		return dst, nil
	}
}

// PKFromSecondaryKey extracts the primary key stored at the tail of a
// secondary-index key.
func PKFromSecondaryKey(key []byte) int32 {
	return DecodePK(key[len(key)-4:])
}
