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
//
// Numbers are spelled from integer digits wherever that is provably the
// shortest spelling: integers below 2^53, and values on a 3-decimal lattice
// (k/1000 with 0 < |k| < 1e15 — LAS coordinates on a centimetre or
// millimetre scale). Only values off every such lattice pay for
// strconv.AppendFloat's shortest-digit search.
package server

import (
	"encoding/json"
	"math"
	"math/bits"
	"slices"
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
	b = appendInt(b, elapsedUs)
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
//
// A value on a 3-decimal lattice is spelled from its digits too. With
// k = ⌊f·1000 + ½⌋ (f·1000 rounded; math.Floor is one instruction where
// math.Round is not) an integer of 0 < |k| < 1e15, k/1000 == f holds
// exactly when the decimal k·10⁻³ rounds to f (k and 1000 are exact doubles
// and IEEE division rounds correctly). That decimal has at most 15 significant
// digits, and two different decimals of at most 15 significant digits never
// round to the same double (DBL_DIG), so it is the unique shortest
// round-trip spelling: what 'f', -1 prints, and 10⁻³ ≤ |f| < 10¹² lies
// inside encoding/json's 'f' range. Never widen the bound past 15
// significant digits — at 16 two decimals can share a double and the
// shortest one need not be k's. ±0 (k == 0) falls through, so -0 stays -0.
func appendNumber(b []byte, f float64) []byte {
	if -(1<<53) < f && f < 1<<53 {
		if i := int64(f); float64(i) == f && (i != 0 || !math.Signbit(f)) {
			return appendInt(b, i)
		}
		if k := math.Floor(f*1000 + 0.5); k != 0 && -1e15 < k && k < 1e15 && k/1000 == f {
			return appendMilli(b, int64(k))
		}
	}
	switch {
	case math.IsNaN(f):
		return append(b, `"NaN"`...)
	case math.IsInf(f, 1):
		return append(b, `"Infinity"`...)
	case math.IsInf(f, -1):
		return append(b, `"-Infinity"`...)
	}
	abs := math.Abs(f)
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

// appendMilli appends the decimal k·10⁻³: the integer part, then a point
// and the fraction digits with trailing zeros trimmed, or no point at all.
func appendMilli(b []byte, k int64) []byte {
	u := uint64(k)
	if k < 0 {
		b = append(b, '-')
		u = -u
	}
	b = appendUint(b, u/1000)
	switch frac := u % 1000; {
	case frac == 0:
		return b
	case frac%100 == 0:
		return append(b, '.', byte('0'+frac/100))
	case frac%10 == 0:
		frac /= 10
		return append(b, '.', digitPairs[2*frac], digitPairs[2*frac+1])
	default:
		lo := frac % 100
		return append(b, '.', byte('0'+frac/100), digitPairs[2*lo], digitPairs[2*lo+1])
	}
}

// appendInt appends i in decimal, as strconv.AppendInt(b, i, 10) does.
func appendInt(b []byte, i int64) []byte {
	u := uint64(i)
	if i < 0 {
		b = append(b, '-')
		u = -u
	}
	return appendUint(b, u)
}

// appendUint appends u in decimal, as strconv.AppendUint(b, u, 10) does,
// but writes the digits in place, two per step from the last, after one
// capacity check instead of formatting them into a scratch array and
// copying that over.
func appendUint(b []byte, u uint64) []byte {
	n := decimalLen(u)
	b = slices.Grow(b, n)
	i := len(b) + n
	b = b[:i]
	for u >= 100 {
		q := u / 100
		r := (u - q*100) * 2
		i -= 2
		b[i], b[i+1] = digitPairs[r], digitPairs[r+1]
		u = q
	}
	if u >= 10 {
		b[i-2], b[i-1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		b[i-1] = byte('0' + u)
	}
	return b
}

// digitPairs is "00" through "99": appendUint writes two digits per step.
const digitPairs = "0001020304050607080910111213141516171819" +
	"2021222324252627282930313233343536373839" +
	"4041424344454647484950515253545556575859" +
	"6061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

// decimalLen is the number of decimal digits of u (1 for 0).
// bits.Len64·log10(2) estimates it from below by at most one and the
// power-of-ten table settles it; u|1 makes 0 count as 1, and changes no
// other answer because every power of ten above 1 is even.
func decimalLen(u uint64) int {
	v := u | 1
	n := bits.Len64(v) * 1233 >> 12
	if v >= pow10[n] {
		n++
	}
	return n
}

// pow10[n] is 10ⁿ; pow10[19] is the largest that fits a uint64.
var pow10 = [20]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
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
