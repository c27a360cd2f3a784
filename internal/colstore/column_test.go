package colstore

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestDTypeSizeAndString(t *testing.T) {
	cases := []struct {
		t    DType
		size int
		name string
	}{
		{F64, 8, "f64"}, {I64, 8, "i64"}, {I32, 4, "i32"},
		{U16, 2, "u16"}, {U8, 1, "u8"},
	}
	for _, c := range cases {
		if c.t.Size() != c.size || c.t.String() != c.name {
			t.Errorf("%v: size=%d name=%q", c.t, c.t.Size(), c.t.String())
		}
	}
	if DType(0).Size() != 0 || !strings.HasPrefix(DType(0).String(), "dtype(") {
		t.Error("zero dtype should be inert")
	}
}

func TestSchemaFieldIndexAndNewColumns(t *testing.T) {
	s := Schema{Fields: []Field{{"x", F64}, {"cls", U8}, {"src", U16}}}
	if s.FieldIndex("cls") != 1 || s.FieldIndex("nope") != -1 {
		t.Fatal("FieldIndex wrong")
	}
	cols := s.NewColumns()
	if len(cols) != 3 {
		t.Fatalf("NewColumns len = %d", len(cols))
	}
	_, f64 := cols[0].(*F64Column)
	_, u8 := cols[1].(*U8Column)
	_, u16 := cols[2].(*U16Column)
	if !f64 || !u8 || !u16 {
		t.Fatalf("column types %T %T %T", cols[0], cols[1], cols[2])
	}
}

func TestNewColumnPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewColumn should panic on unknown dtype")
		}
	}()
	NewColumn(DType(200))
}

func TestRangeHelpers(t *testing.T) {
	if (Range{3, 10}).Len() != 7 {
		t.Fatal("Range.Len wrong")
	}
	if n := RangesLen([]Range{{0, 8}, {10, 20}}); n != 18 {
		t.Fatalf("RangesLen = %d", n)
	}
	if len(FullRange(0)) != 0 || FullRange(7)[0] != (Range{0, 7}) {
		t.Fatal("FullRange wrong")
	}
}

func TestF64ColumnBasics(t *testing.T) {
	c := &F64Column{}
	c.Append(3, 1, 2)
	c.AppendValue(-5)
	if c.Len() != 4 || c.Value(3) != -5 {
		t.Fatal("append/value wrong")
	}
	lo, hi, ok := c.MinMax()
	if !ok || lo != -5 || hi != 3 {
		t.Fatalf("minmax = %v %v %v", lo, hi, ok)
	}
	if c.Bytes() != 32 {
		t.Fatalf("bytes = %d", c.Bytes())
	}
	if err := c.AppendText("2.5"); err != nil || c.Value(4) != 2.5 {
		t.Fatal("AppendText failed")
	}
	if err := c.AppendText("xyz"); err == nil || !strings.HasPrefix(err.Error(), "f64 column: ") {
		t.Fatalf("bad text: %v", err)
	}
	if _, _, ok := (&F64Column{}).MinMax(); ok {
		t.Fatal("empty minmax should be !ok")
	}
}

func TestIntColumnBasics(t *testing.T) {
	i64 := &I64Column{}
	i64.Append(5, -9)
	if lo, hi, _ := i64.MinMax(); lo != -9 || hi != 5 {
		t.Fatal("i64 minmax")
	}
	if err := i64.AppendText("12"); err != nil || i64.Values()[2] != 12 {
		t.Fatal("i64 text")
	}
	if err := i64.AppendText("1.5"); err == nil || !strings.HasPrefix(err.Error(), "i64 column: ") {
		t.Fatalf("i64 bad text: %v", err)
	}

	i32 := &I32Column{}
	i32.Append(7)
	i32.AppendValue(-3)
	if lo, hi, _ := i32.MinMax(); lo != -3 || hi != 7 {
		t.Fatal("i32 minmax")
	}
	if err := i32.AppendText("9999999999999"); err == nil || !strings.HasPrefix(err.Error(), "i32 column: ") {
		t.Fatalf("i32 overflow text: %v", err)
	}

	u16 := &U16Column{}
	u16.Append(9, 1)
	if lo, hi, _ := u16.MinMax(); lo != 1 || hi != 9 {
		t.Fatal("u16 minmax")
	}
	if err := u16.AppendText("-1"); err == nil || !strings.HasPrefix(err.Error(), "u16 column: ") {
		t.Fatalf("u16 negative text: %v", err)
	}

	u8 := &U8Column{}
	u8.Append(200)
	u8.AppendValue(3)
	if lo, hi, _ := u8.MinMax(); lo != 3 || hi != 200 {
		t.Fatal("u8 minmax")
	}
	if err := u8.AppendText("256"); err == nil || !strings.HasPrefix(err.Error(), "u8 column: ") {
		t.Fatalf("u8 overflow text: %v", err)
	}
	if u8.Bytes() != 2 || u16.Bytes() != 4 || i32.Bytes() != 8 {
		t.Fatal("Bytes wrong")
	}
}

func TestBinaryRoundTripAllTypes(t *testing.T) {
	cols := map[DType]Column{
		F64: NewNum([]float64{1.5, -2.25, math.Pi}),
		I64: NewNum([]int64{-1, 0, 1 << 40}),
		I32: NewNum([]int32{-100, 0, 2_000_000}),
		U16: NewNum([]uint16{0, 65535, 42}),
		U8:  NewNum([]uint8{0, 255, 7}),
	}
	for dt, c := range cols {
		var buf bytes.Buffer
		n, err := c.WriteBinary(&buf)
		if err != nil {
			t.Fatalf("%v: write: %v", dt, err)
		}
		if int(n) != c.Bytes() || c.Bytes() != dt.Size()*c.Len() {
			t.Fatalf("%v: wrote %d bytes, Bytes %d", dt, n, c.Bytes())
		}
		fresh := NewColumn(dt)
		if err := fresh.AppendBinary(&buf, c.Len()); err != nil {
			t.Fatalf("%v: read: %v", dt, err)
		}
		if fresh.Len() != c.Len() {
			t.Fatalf("%v: len %d, want %d", dt, fresh.Len(), c.Len())
		}
		for i := 0; i < c.Len(); i++ {
			if fresh.Value(i) != c.Value(i) {
				t.Fatalf("%v: value %d = %v, want %v", dt, i, fresh.Value(i), c.Value(i))
			}
		}
	}
}

func TestBinaryShortRead(t *testing.T) {
	c := &F64Column{}
	if err := c.AppendBinary(bytes.NewReader([]byte{1, 2, 3}), 1); err == nil {
		t.Fatal("short read should error")
	}
	if c.Len() != 0 {
		t.Fatal("failed append should not leave partial data visible via Len for f64")
	}
	u8 := &U8Column{}
	if err := u8.AppendBinary(bytes.NewReader([]byte{1, 2}), 5); err == nil {
		t.Fatal("u8 short read should error")
	}
	if u8.Len() != 0 {
		t.Fatal("u8 short read should roll back")
	}
	// A short read past the first chunk keeps the earlier values and drops
	// every chunk of the failed call.
	u16 := NewNum([]uint16{7})
	err := u16.AppendBinary(bytes.NewReader(make([]byte, binChunk+3)), binChunk)
	if err == nil || !strings.HasPrefix(err.Error(), "u16 column: short read at 32769/65536") {
		t.Fatalf("u16 multi-chunk short read: %v", err)
	}
	if u16.Len() != 1 || u16.Values()[0] != 7 {
		t.Fatalf("u16 short read left %d values", u16.Len())
	}
}

// Reserve grows a column once, to need + need/16, and leaves its length
// alone; the room reads zero even where an earlier value was rolled back;
// Extend makes it visible; and a reserved AppendBinary never reallocates.
func TestReserveExtend(t *testing.T) {
	c := NewNum([]int32{1, 2, 3})
	c.Reserve(157)
	if c.Len() != 3 || cap(c.Values()) != 160+10 {
		t.Fatalf("reserve 157 over 3: len %d cap %d, want 3 and 170", c.Len(), cap(c.Values()))
	}
	room := c.Values()[3:160]
	for i := range room {
		room[i] = int32(i)
	}
	c.Extend(157)
	if c.Len() != 160 || c.Values()[159] != 156 || c.Values()[2] != 3 {
		t.Fatalf("extend: len %d, last %d", c.Len(), c.Values()[159])
	}
	base := &c.Values()[0]
	if err := c.AppendBinary(bytes.NewReader(make([]byte, 3)), 1); err == nil {
		t.Fatal("short read should error")
	}
	c.Values()[:161][160] = 9 // a value past Len, as a rolled-back read leaves
	c.Reserve(10)
	if &c.Values()[0] != base || c.Values()[:170][160] != 0 {
		t.Fatal("a reserve within capacity moved the column or kept a stale value")
	}
	if err := c.AppendBinary(bytes.NewReader(make([]byte, 40)), 10); err != nil || &c.Values()[0] != base || c.Len() != 170 {
		t.Fatalf("reserved AppendBinary: err %v, len %d, moved %v", err, c.Len(), &c.Values()[0] != base)
	}
}

func TestStrColumn(t *testing.T) {
	c := NewStrColumn()
	c.AppendString("motorway")
	c.AppendString("residential")
	c.AppendString("motorway")
	if len(c.Codes()) != 3 || c.DictSize() != 2 {
		t.Fatalf("len=%d dict=%d", len(c.Codes()), c.DictSize())
	}
	if c.String(2) != "motorway" || c.String(1) != "residential" {
		t.Fatal("string lookup wrong")
	}
	code, ok := c.Code("motorway")
	if !ok || code != 0 {
		t.Fatalf("code = %d %v", code, ok)
	}
	if _, ok := c.Code("canal"); ok {
		t.Fatal("missing string should not resolve")
	}
	if codes := c.Codes(); codes[0] != 0 || codes[1] != 1 || codes[2] != 0 {
		t.Fatalf("codes = %v", codes)
	}
	c.AppendString("park")
	if c.String(3) != "park" {
		t.Fatal("AppendString failed")
	}
	// Bytes counts codes + dictionary payload.
	want := 4*4 + len("motorway") + len("residential") + len("park")
	if c.Bytes() != want {
		t.Fatalf("bytes = %d, want %d", c.Bytes(), want)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	schema := Schema{Fields: []Field{{"x", F64}, {"n", I32}, {"cls", U8}}}
	cols := schema.NewColumns()
	cols[0].(*F64Column).Append(1.5, -2)
	cols[1].(*I32Column).Append(10, -20)
	cols[2].(*U8Column).Append(6, 9)

	var buf bytes.Buffer
	if err := WriteCSV(&buf, cols); err != nil {
		t.Fatal(err)
	}
	want := "1.5,10,6\n-2,-20,9\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
	fresh := schema.NewColumns()
	rows, err := AppendCSV(&buf, fresh)
	if err != nil || rows != 2 {
		t.Fatalf("AppendCSV rows=%d err=%v", rows, err)
	}
	if fresh[0].Value(1) != -2 || fresh[1].Value(1) != -20 || fresh[2].Value(1) != 9 {
		t.Fatal("csv parse wrong")
	}
}

func TestCSVAllNumericTypes(t *testing.T) {
	cols := []Column{
		NewNum([]float64{0.25}),
		NewNum([]int64{-7}),
		NewNum([]int32{9}),
		NewNum([]uint16{300}),
		NewNum([]uint8{5}),
		NewNum([]float64{1e6}),
		NewNum([]int64{1e6}),
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, cols); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "0.25,-7,9,300,5,1e+06,1000000\n" {
		t.Fatalf("csv = %q", buf.String())
	}
}

func TestCSVErrors(t *testing.T) {
	// Ragged table.
	cols := []Column{NewNum([]float64{1}), NewNum([]float64{1, 2})}
	if err := WriteCSV(&bytes.Buffer{}, cols); err == nil {
		t.Fatal("ragged table should error")
	}
	// Field count mismatch on read.
	fresh := []Column{&F64Column{}}
	if _, err := AppendCSV(strings.NewReader("1,2\n"), fresh); err == nil {
		t.Fatal("field count mismatch should error")
	}
	// Unparseable token.
	if _, err := AppendCSV(strings.NewReader("zzz\n"), []Column{&F64Column{}}); err == nil {
		t.Fatal("bad token should error")
	}
	// Empty input writes nothing.
	if err := WriteCSV(&bytes.Buffer{}, nil); err != nil {
		t.Fatal("empty table should be fine")
	}
	// Blank lines are skipped.
	n, err := AppendCSV(strings.NewReader("\n1\n\n2\n"), []Column{&F64Column{}})
	if err != nil || n != 2 {
		t.Fatalf("blank line handling: n=%d err=%v", n, err)
	}
}

// Property: binary round trip preserves float64 bit patterns (including
// negative zero and infinities).
func TestQuickF64BinaryRoundTrip(t *testing.T) {
	f := func(vals []float64) bool {
		c := NewNum(vals)
		var buf bytes.Buffer
		if _, err := c.WriteBinary(&buf); err != nil {
			return false
		}
		fresh := &F64Column{}
		if err := fresh.AppendBinary(&buf, len(vals)); err != nil {
			return false
		}
		for i, v := range vals {
			got := fresh.Values()[i]
			if math.Float64bits(got) != math.Float64bits(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryGoldenBytes pins the on-disk format byte for byte: one
// hand-written little-endian array per element type, including a NaN
// payload, -0, MaxUint16 and MinInt32. A round trip alone would pass a
// symmetric format change.
func TestBinaryGoldenBytes(t *testing.T) {
	nan := math.Float64frombits(0x7ff0_0000_0000_0001) // signalling NaN, payload 1
	cases := []struct {
		dt   DType
		col  Column
		want []byte
	}{
		{F64, NewNum([]float64{1.5, math.Copysign(0, -1), nan, math.Inf(-1)}), []byte{
			0, 0, 0, 0, 0, 0, 0xf8, 0x3f,
			0, 0, 0, 0, 0, 0, 0, 0x80,
			1, 0, 0, 0, 0, 0, 0xf0, 0x7f,
			0, 0, 0, 0, 0, 0, 0xf0, 0xff,
		}},
		{I64, NewNum([]int64{-1, 1<<40 + 2}), []byte{
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
			2, 0, 0, 0, 0, 1, 0, 0,
		}},
		{I32, NewNum([]int32{math.MinInt32, 0x01020304, -2}), []byte{
			0, 0, 0, 0x80,
			4, 3, 2, 1,
			0xfe, 0xff, 0xff, 0xff,
		}},
		{U16, NewNum([]uint16{math.MaxUint16, 0x0102, 0}), []byte{0xff, 0xff, 2, 1, 0, 0}},
		{U8, NewNum([]uint8{0, 255, 7}), []byte{0, 0xff, 7}},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if n, err := c.col.WriteBinary(&buf); err != nil || int(n) != len(c.want) {
			t.Fatalf("%v: wrote %d bytes, err %v", c.dt, n, err)
		}
		if !bytes.Equal(buf.Bytes(), c.want) {
			t.Fatalf("%v: wrote % x, want % x", c.dt, buf.Bytes(), c.want)
		}
		got := NewColumn(c.dt)
		if err := got.AppendBinary(bytes.NewReader(c.want), c.col.Len()); err != nil {
			t.Fatalf("%v: read: %v", c.dt, err)
		}
		for i := 0; i < c.col.Len(); i++ {
			if g, w := math.Float64bits(got.Value(i)), math.Float64bits(c.col.Value(i)); g != w {
				t.Fatalf("%v: value %d reads %#x, want %#x", c.dt, i, g, w)
			}
		}
	}
}

// FuzzColumnBinary holds the binary reader to its contract for every
// element type, over arbitrary bytes and an arbitrary claimed count n:
// AppendBinary either appends exactly n values whose re-encoding is the
// first n*size input bytes, or errors because fewer bytes arrived and
// leaves the column as it was. It never panics and never sizes an
// allocation from n.
func FuzzColumnBinary(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x3f, 1}, 1)
	f.Add([]byte{1, 2, 3}, 2)
	f.Add([]byte{}, 0)
	f.Add([]byte{0xff}, -5)
	f.Add([]byte{9, 9, 9, 9}, 1<<40)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		for _, dt := range []DType{F64, I64, I32, U16, U8} {
			c := NewColumn(dt)
			c.AppendValue(1)
			err := c.AppendBinary(bytes.NewReader(data), n)
			want := max(n, 0)
			short := want > len(data)/dt.Size()
			if short != (err != nil) {
				t.Fatalf("%v: n=%d over %d bytes: err %v", dt, n, len(data), err)
			}
			if err != nil {
				if c.Len() != 1 || c.Value(0) != 1 {
					t.Fatalf("%v: failed read left %d values", dt, c.Len())
				}
				continue
			}
			if c.Len() != 1+want {
				t.Fatalf("%v: appended %d values, want %d", dt, c.Len()-1, want)
			}
			var buf bytes.Buffer
			if _, err := c.WriteBinary(&buf); err != nil {
				t.Fatal(err)
			}
			if got := buf.Bytes()[dt.Size():]; !bytes.Equal(got, data[:want*dt.Size()]) {
				t.Fatalf("%v: re-encoded % x, read % x", dt, got, data[:want*dt.Size()])
			}
		}
	})
}

// minMaxRef is MinMax's row-at-a-time reference over the non-NaN values.
func minMaxRef[T Number](vals []T) (lo, hi float64, ok bool) {
	for _, v := range vals {
		f := float64(v)
		if math.IsNaN(f) {
			continue
		}
		if !ok || f < lo {
			lo = f
		}
		if !ok || f > hi {
			hi = f
		}
		ok = true
	}
	return lo, hi, ok
}

// sameMinMax requires c.MinMax to equal the reference over vals bit for bit.
func sameMinMax[T Number](t *testing.T, label string, vals []T) {
	t.Helper()
	lo, hi, ok := NewNum(vals).MinMax()
	wlo, whi, wok := minMaxRef(vals)
	if ok != wok || (ok && (math.Float64bits(lo) != math.Float64bits(wlo) || math.Float64bits(hi) != math.Float64bits(whi))) {
		t.Fatalf("%s: MinMax(%v) = %v, %v, %v; want %v, %v, %v", label, vals, lo, hi, ok, wlo, whi, wok)
	}
}

// TestMinMaxIgnoresNaN holds MinMax to the reference for every column
// type over each type's extreme values, and — for the one type that can
// hold a NaN — with a NaN at every position of the column, which must give
// the answer the column without it gives. A column of NaN alone is !ok.
func TestMinMaxIgnoresNaN(t *testing.T) {
	sameMinMax(t, "i64", []int64{3, math.MinInt64, math.MaxInt64, -1})
	sameMinMax(t, "i32", []int32{0, math.MaxInt32, math.MinInt32})
	sameMinMax(t, "u16", []uint16{7, math.MaxUint16, 0})
	sameMinMax(t, "u8", []uint8{255, 1, 0, 9})
	negz := math.Copysign(0, -1)
	base := []float64{negz, 0, 2.5, -7, math.Inf(1), 1e300}
	for n := 0; n <= len(base); n++ {
		vals := base[:n]
		lo, hi, ok := NewNum(vals).MinMax()
		sameMinMax(t, "f64", vals)
		for at := 0; at <= n; at++ {
			with := append(append(append([]float64{}, vals[:at]...), math.NaN()), vals[at:]...)
			glo, ghi, gok := NewNum(with).MinMax()
			if gok != ok || math.Float64bits(glo) != math.Float64bits(lo) || math.Float64bits(ghi) != math.Float64bits(hi) {
				t.Fatalf("MinMax(%v) = %v, %v, %v; without the NaN %v, %v, %v", with, glo, ghi, gok, lo, hi, ok)
			}
		}
	}
	if _, _, ok := NewNum([]float64{math.NaN(), math.NaN()}).MinMax(); ok {
		t.Fatal("an all-NaN column should be !ok")
	}
}
