// The wire encoding of a successful /query reply, appended straight from the
// result's typed columns:
//
//	{"columns":["x","n"],"rows":[[1.5,2],[3.25,null]],"elapsed_us":412}\n
//
// rows is row-major. The bytes are exactly what encoding/json produces for
// the same values: a number is its shortest round-trip decimal ('e' form
// below 1e-6 and from 1e21, exponent without a leading zero), -0 stays -0,
// the non-finite numbers JSON cannot spell travel as the strings
// "Infinity", "-Infinity" and "NaN", NULL is null, geometries are WKT
// strings, and strings are escaped as encoding/json escapes them (HTML-safe,
// invalid UTF-8 replaced). The wire differential test holds the encoder to
// that byte for byte.
package server

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"

	"gisnav/internal/sql"
)

// maxPooledReply caps the reply buffers the encoder recycles: a buffer a
// huge reply grew past it is left to the garbage collector instead of
// pinning that much heap in the pool.
const maxPooledReply = 1 << 20

// replyBufs recycles reply buffers across requests, so a navigation
// session's steady stream of same-sized replies encodes without allocating.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendReply appends the success body of /query, trailing newline
// included, to b.
func appendReply(b []byte, res *sql.Result, elapsedUs int64) []byte {
	b = append(b, `{"columns":`...)
	if res.Columns == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, name := range res.Columns {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, name)
		}
		b = append(b, ']')
	}
	b = append(b, `,"rows":[`...)
	for r, n := 0, res.Len(); r < n; r++ {
		if r > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j := range res.Cols {
			if j > 0 {
				b = append(b, ',')
			}
			c := &res.Cols[j]
			switch {
			case c.Vals != nil:
				b = appendValue(b, c.Vals[r])
			case c.Null != nil && c.Null[r]:
				b = append(b, "null"...)
			default:
				b = appendNumber(b, c.Nums[r])
			}
		}
		b = append(b, ']')
	}
	b = append(b, `],"elapsed_us":`...)
	b = strconv.AppendInt(b, elapsedUs, 10)
	return append(b, '}', '\n')
}

// appendValue appends one boxed cell in its JSON-native form.
func appendValue(b []byte, v sql.Value) []byte {
	switch v.Kind {
	case sql.KindNum:
		return appendNumber(b, v.Num)
	case sql.KindStr:
		return appendString(b, v.Str)
	case sql.KindBool:
		return strconv.AppendBool(b, v.Bool)
	case sql.KindNull:
		return append(b, "null"...)
	default:
		return appendString(b, v.String())
	}
}

// appendNumber appends f as encoding/json formats a float64. Integral
// values below 2^53 — ids, counts, classification codes — take the integer
// formatter: every integer in that range is a float64, so the shortest
// decimal that round-trips is the integer's own digits.
func appendNumber(b []byte, f float64) []byte {
	abs := math.Abs(f)
	switch {
	case abs < 1<<53:
		if i := int64(f); float64(i) == f && (i != 0 || !math.Signbit(f)) {
			return strconv.AppendInt(b, i, 10)
		}
	case math.IsNaN(f):
		return append(b, `"NaN"`...)
	case math.IsInf(f, 1):
		return append(b, `"Infinity"`...)
	case math.IsInf(f, -1):
		return append(b, `"-Infinity"`...)
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json cleans it up.
		if n := len(b); n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a JSON string. Printable ASCII that
// encoding/json leaves alone is copied; anything it would escape or replace
// is handed to it.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s) // a string cannot fail to marshal
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
