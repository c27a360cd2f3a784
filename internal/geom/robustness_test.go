package geom

import (
	"math/rand"
	"testing"
)

// Robustness: parsers must reject malformed input with an error, never
// panic, whatever bytes arrive. These tests drive random and structured
// garbage through WKT.

func TestWKTParserNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	alphabet := []byte("POINTLIESRGMUC()0123456789.,- EMPTYZ")
	for iter := 0; iter < 5000; iter++ {
		n := rng.Intn(40)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = alphabet[rng.Intn(len(alphabet))]
		}
		// Must not panic; error or success are both acceptable.
		g, err := ParseWKT(string(buf))
		if err == nil && g == nil {
			t.Fatalf("nil geometry without error for %q", buf)
		}
	}
}

func TestWKTParserTruncations(t *testing.T) {
	full := "MULTIPOLYGON (((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2)))"
	for i := 0; i < len(full); i++ {
		if _, err := ParseWKT(full[:i]); err == nil && i < len(full) {
			// Some prefixes are valid (e.g. shorter numbers swallowed), but
			// prefixes that cut structure must error. Only structural cuts
			// are asserted here: anything ending mid-parenthesis.
			open := 0
			for _, c := range full[:i] {
				switch c {
				case '(':
					open++
				case ')':
					open--
				}
			}
			if open != 0 {
				t.Fatalf("unbalanced prefix %q parsed", full[:i])
			}
		}
	}
}

func TestPredicatesWithExtremeCoordinates(t *testing.T) {
	// Predicates should behave (no panic, boolean result) at float extremes.
	big := 1e308
	poly := Polygon{Shell: Ring{Points: []Point{{-big, -big}, {big, -big}, {big, big}, {-big, big}}}}
	_ = PolygonContainsPoint(poly, 0, 0)
	_ = ClassifyBoxPolygon(poly, NewEnvelope(-1, -1, 1, 1))
	_ = DistancePointToGeometry(big, big, poly)
	line := LineString{Points: []Point{{-big, 0}, {big, 0}}}
	_ = DWithin(0, 1, line, 5)
	_ = Intersects(poly, line)
}
