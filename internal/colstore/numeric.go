package colstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
)

// Number is the closed set of column element types.
type Number interface {
	float64 | int64 | int32 | uint16 | uint8
}

// Num is the column of one element type: a flat []T, widened to float64
// only at the Column interface. Hot loops type-switch to the concrete
// instantiation and scan Values() directly.
type Num[T Number] struct{ vals []T }

// The five instantiations under their element names.
type (
	F64Column = Num[float64]
	I64Column = Num[int64]
	I32Column = Num[int32]  // LAS raw coordinates, scan angles
	U16Column = Num[uint16] // intensity, point source id, RGB
	U8Column  = Num[uint8]  // classification, returns, flags
)

// NewNum wraps an existing slice (no copy).
func NewNum[T Number](vals []T) *Num[T] { return &Num[T]{vals: vals} }

// dtype maps the element type to its DType.
func (*Num[T]) dtype() DType {
	var z T
	switch any(z).(type) {
	case float64:
		return F64
	case int64:
		return I64
	case int32:
		return I32
	case uint16:
		return U16
	}
	return U8
}

// Len implements Column.
func (c *Num[T]) Len() int { return len(c.vals) }

// Value implements Column.
func (c *Num[T]) Value(i int) float64 { return float64(c.vals[i]) }

// Values exposes the backing slice for vectorised scans.
func (c *Num[T]) Values() []T { return c.vals }

// Append adds values.
func (c *Num[T]) Append(vs ...T) { c.vals = append(c.vals, vs...) }

// Reserve implements Column. Growth is one reallocation to need + need/16
// for need = Len()+n: the sixteenth keeps the next small append from
// reallocating a freshly sized column, and no more slack stays resident.
func (c *Num[T]) Reserve(n int) {
	need := len(c.vals) + n
	if need <= cap(c.vals) {
		clear(c.vals[len(c.vals):need])
		return
	}
	vals := make([]T, len(c.vals), need+need/16)
	copy(vals, c.vals)
	c.vals = vals
}

// Extend implements Column.
func (c *Num[T]) Extend(n int) { c.vals = c.vals[:len(c.vals)+n] }

// AppendValue implements Column.
func (c *Num[T]) AppendValue(v float64) { c.vals = append(c.vals, T(v)) }

// AppendText implements Column: a float for f64, a base-10 integer that
// fits the element type otherwise.
func (c *Num[T]) AppendText(s string) error {
	t := c.dtype()
	var v T
	var err error
	switch t {
	case F64:
		var f float64
		f, err = strconv.ParseFloat(s, 64)
		v = T(f)
	case I64, I32:
		var i int64
		i, err = strconv.ParseInt(s, 10, 8*t.Size())
		v = T(i)
	default:
		var u uint64
		u, err = strconv.ParseUint(s, 10, 8*t.Size())
		v = T(u)
	}
	if err != nil {
		return fmt.Errorf("%s column: %w", t, err)
	}
	c.vals = append(c.vals, v)
	return nil
}

// format implements Column.
func (c *Num[T]) format(dst []byte, i int) []byte {
	v := c.vals[i]
	switch c.dtype() {
	case F64:
		return strconv.AppendFloat(dst, float64(v), 'g', -1, 64)
	case I64, I32:
		return strconv.AppendInt(dst, int64(v), 10)
	}
	return strconv.AppendUint(dst, uint64(v), 10)
}

// MinMax implements Column. The folds start from ±Inf and move only on a
// strict compare, so a NaN never enters, wherever it stands; widening is
// monotone, so folding the widened values is exact for every element type.
func (c *Num[T]) MinMax() (float64, float64, bool) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range c.vals {
		f := float64(v)
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	if lo > hi {
		return 0, 0, false
	}
	return lo, hi, true
}

// Bytes implements Column.
func (c *Num[T]) Bytes() int { return c.dtype().Size() * len(c.vals) }

// binChunk is the byte size of one encode/decode step of the binary codec.
const binChunk = 1 << 16

// WriteBinary implements Column.
func (c *Num[T]) WriteBinary(w io.Writer) (int64, error) {
	size := c.dtype().Size()
	per := binChunk / size
	buf := make([]byte, 0, min(len(c.vals), per)*size)
	var n int64
	for vals := c.vals; len(vals) > 0; {
		k := min(len(vals), per)
		b, _ := binary.Append(buf, binary.LittleEndian, vals[:k]) // a fixed-size slice always encodes
		m, err := w.Write(b)
		n += int64(m)
		if err != nil {
			return n, err
		}
		vals = vals[k:]
	}
	return n, nil
}

// AppendBinary implements Column. Unless Reserve made room for them, the
// values arrive one chunk at a time and the column grows by each, never by
// n up front: n may come from an untrusted manifest. A short read leaves
// the column as it was.
func (c *Num[T]) AppendBinary(r io.Reader, n int) error {
	size := c.dtype().Size()
	per := binChunk / size
	buf := make([]byte, min(max(n, 0), per)*size)
	start := len(c.vals)
	for done := 0; done < n; {
		k := min(n-done, per)
		if m, err := io.ReadFull(r, buf[:k*size]); err != nil {
			c.vals = c.vals[:start]
			return fmt.Errorf("%s column: short read at %d/%d: %w", c.dtype(), done+m/size, n, err)
		}
		at := len(c.vals)
		c.vals = slices.Grow(c.vals, k)[:at+k]
		_, _ = binary.Decode(buf[:k*size], binary.LittleEndian, c.vals[at:]) // sizes match by construction
		done += k
	}
	return nil
}
