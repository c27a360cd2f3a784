// Package colstore implements the columnar storage substrate of the
// spatially-enabled column store: one generic numeric column, Num[T], over
// the closed set of LAS attribute element types (float64 coordinates after
// scale/offset application, small integers for most properties), with
// append, min/max statistics, text (CSV) ingestion, and raw little-endian
// binary dump/load — the equivalent of MonetDB's COPY BINARY bulk path that
// the paper's loader targets (§3.2). Column is sealed: Num[T] is its only
// implementation, so a type switch over the five instantiations is
// exhaustive. StrColumn, the dictionary-encoded string column of the vector
// tables, stands beside it and is not a Column.
//
// A flat table is simply a Schema plus one Column per field; rows are never
// materialised. Row positions are addressed by dense indices, and query
// operators exchange candidate sets as sorted half-open Ranges or explicit
// selection vectors.
package colstore

import (
	"fmt"
	"io"
)

// DType enumerates the supported column element types. They mirror the
// attribute types of the LAS point record (float64 coordinates after
// scale/offset application, unsigned small integers for most properties).
type DType uint8

// Supported element types.
const (
	F64 DType = iota + 1
	I64
	I32
	U16
	U8
)

// Size returns the in-memory element width in bytes.
func (t DType) Size() int {
	switch t {
	case F64, I64:
		return 8
	case I32:
		return 4
	case U16:
		return 2
	case U8:
		return 1
	default:
		return 0
	}
}

// String names the type.
func (t DType) String() string {
	switch t {
	case F64:
		return "f64"
	case I64:
		return "i64"
	case I32:
		return "i32"
	case U16:
		return "u16"
	case U8:
		return "u8"
	default:
		return fmt.Sprintf("dtype(%d)", uint8(t))
	}
}

// Column is the type-erased view of a Num[T]. It is sealed (format is
// unexported), so the five Num instantiations are its only implementations.
type Column interface {
	// Len reports the number of stored values.
	Len() int
	// Value returns element i widened to float64. It is the generic access
	// path; hot loops should type-assert to the concrete column and use
	// Values().
	Value(i int) float64
	// AppendValue appends a value given as float64 (narrowing as needed).
	AppendValue(v float64)
	// AppendText parses and appends a text token (CSV ingestion path).
	AppendText(s string) error
	// MinMax returns the minimum and maximum stored values widened to
	// float64, ignoring NaN; ok is false when no value is a number (an
	// empty or all-NaN column).
	MinMax() (lo, hi float64, ok bool)
	// Bytes reports the in-memory payload size in bytes.
	Bytes() int
	// WriteBinary dumps the values as a raw little-endian array — the
	// C-array format consumed by COPY BINARY.
	WriteBinary(w io.Writer) (int64, error)
	// AppendBinary appends n values from a raw little-endian array.
	AppendBinary(r io.Reader, n int) error
	// Reserve makes room for n values past Len in at most one
	// reallocation, which is how a bulk path sizes a column once from a
	// count its bytes bound. The room reads zero and is the writable,
	// still invisible tail of Values() up to its capacity.
	Reserve(n int)
	// Extend makes the next n values past Len visible, as their writers
	// left them; n must fit the capacity.
	Extend(n int)
	// format appends element i as CSV text.
	format(dst []byte, i int) []byte
}

// Field describes one attribute of a flat table.
type Field struct {
	Name string
	Type DType
}

// Schema is an ordered list of fields.
type Schema struct {
	Fields []Field
}

// FieldIndex returns the position of the named field, or -1.
func (s Schema) FieldIndex(name string) int {
	for i, f := range s.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// TypeOf returns the type of the named field; ok is false when the schema
// has no such field.
func (s Schema) TypeOf(name string) (t DType, ok bool) {
	if i := s.FieldIndex(name); i >= 0 {
		return s.Fields[i].Type, true
	}
	return 0, false
}

// NewColumns allocates one empty column per schema field.
func (s Schema) NewColumns() []Column {
	cols := make([]Column, len(s.Fields))
	for i, f := range s.Fields {
		cols[i] = NewColumn(f.Type)
	}
	return cols
}

// NewColumn allocates an empty column of the given type.
func NewColumn(t DType) Column {
	switch t {
	case F64:
		return &F64Column{}
	case I64:
		return &I64Column{}
	case I32:
		return &I32Column{}
	case U16:
		return &U16Column{}
	case U8:
		return &U8Column{}
	default:
		panic(fmt.Sprintf("colstore: unknown dtype %v", t))
	}
}

// Range is a half-open interval [Start, End) of row positions. Query
// operators exchange candidate sets as sorted, non-overlapping Range slices.
type Range struct {
	Start, End int
}

// Len returns the number of rows covered.
func (r Range) Len() int { return r.End - r.Start }

// RangesLen sums the row counts of a range list.
func RangesLen(rs []Range) int {
	n := 0
	for _, r := range rs {
		n += r.Len()
	}
	return n
}

// FullRange returns the single range covering n rows.
func FullRange(n int) []Range {
	if n == 0 {
		return nil
	}
	return []Range{{0, n}}
}
