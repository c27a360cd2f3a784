package colstore

import (
	"bytes"
	"testing"
)

// BenchmarkColumnBinary is one write plus one read of a 1 M-value column
// through the Column interface, per element type: the per-column cost of
// the binary load path (§3.2).
func BenchmarkColumnBinary(b *testing.B) {
	const n = 1 << 20
	for _, dt := range []DType{F64, I64, I32, U16, U8} {
		b.Run(dt.String(), func(b *testing.B) {
			src := NewColumn(dt)
			for i := 0; i < n; i++ {
				src.AppendValue(float64(i % 200))
			}
			var buf bytes.Buffer
			buf.Grow(src.Bytes())
			b.SetBytes(int64(src.Bytes()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if _, err := src.WriteBinary(&buf); err != nil {
					b.Fatal(err)
				}
				if err := NewColumn(dt).AppendBinary(&buf, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
