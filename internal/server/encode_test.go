package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"testing"

	"gisnav/internal/geom"
	"gisnav/internal/sql"
)

// --- the reference encoder ----------------------------------------------------
//
// What /query answered with before the append-style encoder replaced it:
// every cell boxed into [][]any, then reflective json.Marshal. It lives on
// here as the oracle the encoder must match byte for byte, and as the type
// the handler tests decode replies into.

// queryResponse is the success body of /query.
type queryResponse struct {
	Columns   []string `json:"columns"`
	Rows      [][]any  `json:"rows"`
	ElapsedUs int64    `json:"elapsed_us"`
}

// encodeRows converts result values into their JSON-native forms: numbers
// as numbers, strings as strings, booleans as booleans, NULL as null, and
// geometries as WKT strings; ±Inf and NaN travel as the strings "Infinity",
// "-Infinity" and "NaN".
func encodeRows(rows [][]sql.Value) [][]any {
	out := make([][]any, len(rows))
	for i, row := range rows {
		enc := make([]any, len(row))
		for j, v := range row {
			switch v.Kind {
			case sql.KindNum:
				switch {
				case math.IsNaN(v.Num):
					enc[j] = "NaN"
				case math.IsInf(v.Num, 1):
					enc[j] = "Infinity"
				case math.IsInf(v.Num, -1):
					enc[j] = "-Infinity"
				default:
					enc[j] = v.Num
				}
			case sql.KindStr:
				enc[j] = v.Str
			case sql.KindBool:
				enc[j] = v.Bool
			case sql.KindNull:
				enc[j] = nil
			default:
				enc[j] = v.String()
			}
		}
		out[i] = enc
	}
	return out
}

// referenceReply is the reply the old path wrote for res.
func referenceReply(t testing.TB, res *sql.Result, elapsedUs int64) []byte {
	t.Helper()
	data, err := json.Marshal(&queryResponse{Columns: res.Columns, Rows: encodeRows(res.Rows()), ElapsedUs: elapsedUs})
	if err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	return append(data, '\n')
}

// --- adversarial values -------------------------------------------------------

var wireFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 2, 6, 255, 65535, 0.1, -0.1, 1.0 / 3, 1234.56, 85123.07,
	math.NaN(), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1e20, 1e22, 1e100, 1.5e300,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, -1e-7, 1e-9, 1.5e-10, 1e-10, 1e-100, 1.234e-5,
	1<<53 - 1, 1 << 53, 1<<53 + 2, -(1<<53 - 1), -(1 << 53), 1 << 60, 1 << 62, 1 << 63, 1 << 64,
	1e15, 1e16, 1e17, 123456789, 4294967296, 9007199254740993, 0.5, 1.5, 1e15 + 0.5, 4503599627370497.5,
}

var wireStrings = []string{
	"", "plain", "motorway", `<script>alert("x")&amp;</script>`, "a<b>c&d", `quote " and \ backslash`,
	"line\nfeed\ttab\r\x00\x1f", "del\x7f", "sep\u2028and\u2029", "héllo wörld", "日本語", "emoji 🗺️",
	"\xff\xfe invalid", "trunc\xe2\x82", "\xc0\xaf", "POINT (1 2)",
}

var wireGeoms = []geom.Geometry{
	geom.Point{X: 1.5, Y: -2},
	geom.NewEnvelope(0, 0, 10.25, 1e21).ToPolygon(),
}

func numValue(f float64) sql.Value { return sql.Value{Kind: sql.KindNum, Num: f} }

// wireResults is the hand-built adversarial set.
func wireResults() []*sql.Result {
	nulls := make([]bool, len(wireFloats))
	for i := range nulls {
		nulls[i] = i%3 == 0
	}
	allNull := make([]bool, len(wireFloats))
	for i := range allNull {
		allNull[i] = true
	}
	var strs, mixed []sql.Value
	for i, s := range wireStrings {
		strs = append(strs, sql.Value{Kind: sql.KindStr, Str: s})
		switch i % 5 {
		case 0:
			mixed = append(mixed, sql.Value{Kind: sql.KindStr, Str: s})
		case 1:
			mixed = append(mixed, numValue(wireFloats[i%len(wireFloats)]))
		case 2:
			mixed = append(mixed, sql.Value{Kind: sql.KindNull})
		case 3:
			mixed = append(mixed, sql.Value{Kind: sql.KindBool, Bool: i%2 == 0})
		default:
			mixed = append(mixed, sql.Value{Kind: sql.KindGeom, Geom: wireGeoms[i%len(wireGeoms)]})
		}
	}
	var geoms []sql.Value
	for _, g := range wireGeoms {
		geoms = append(geoms, sql.Value{Kind: sql.KindGeom, Geom: g})
	}
	return []*sql.Result{
		// Every float, plain, under a NULL mask and boxed.
		{Columns: []string{"f", "masked", "all_null", "boxed"}, Cols: []sql.Column{
			{Nums: wireFloats}, {Nums: wireFloats, Null: nulls}, {Nums: wireFloats, Null: allNull}, {Vals: boxed(wireFloats)},
		}},
		// Strings, and every kind through one Value vector.
		{Columns: []string{"s", `m<i>x&"ed"`}, Cols: []sql.Column{{Vals: strs}, {Vals: mixed}}},
		{Columns: []string{"geom", "b"}, Cols: []sql.Column{
			{Vals: geoms}, {Vals: []sql.Value{{Kind: sql.KindBool, Bool: true}, {Kind: sql.KindBool}}},
		}},
		// Zero rows: nil vectors, empty vectors, an empty Value vector.
		{Columns: []string{"x", "y"}, Cols: []sql.Column{{}, {}}},
		{Columns: []string{"x", "s"}, Cols: []sql.Column{{Nums: []float64{}}, {Vals: []sql.Value{}}}},
		// Zero columns: a nil and an empty column list.
		{},
		{Columns: []string{}, Cols: []sql.Column{}},
		// One cell of each shape.
		{Columns: []string{"count(*)"}, Cols: []sql.Column{{Nums: []float64{40515}}}},
		{Columns: []string{"avg(z)"}, Cols: []sql.Column{{Nums: []float64{0}, Null: []bool{true}}}},
	}
}

func boxed(fs []float64) []sql.Value {
	out := make([]sql.Value, len(fs))
	for i, f := range fs {
		out[i] = numValue(f)
	}
	return out
}

// randomResult draws a result of random shape: float bit patterns from the
// whole 64-bit space beside navigation-like magnitudes, NULL masks, and
// Value columns mixing every kind.
func randomResult(rng *rand.Rand) *sql.Result {
	ncols, nrows := 1+rng.Intn(6), rng.Intn(40)
	res := &sql.Result{Cols: make([]sql.Column, ncols)}
	randFloat := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return math.Float64frombits(rng.Uint64())
		case 1:
			return float64(rng.Int63n(1<<54) - 1<<53)
		case 2:
			return wireFloats[rng.Intn(len(wireFloats))]
		case 3:
			return math.Round(rng.Float64()*3e8) / 100 // LAS-style scaled coordinate
		case 4:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		default:
			return float64(rng.Intn(70000))
		}
	}
	for j := range res.Cols {
		res.Columns = append(res.Columns, wireStrings[rng.Intn(len(wireStrings))]+strconv.Itoa(j))
		c := &res.Cols[j]
		if rng.Intn(3) > 0 {
			c.Nums = make([]float64, nrows)
			for i := range c.Nums {
				c.Nums[i] = randFloat()
			}
			if rng.Intn(3) == 0 {
				c.Null = make([]bool, nrows)
				for i := range c.Null {
					c.Null[i] = rng.Intn(4) == 0
				}
			}
			continue
		}
		c.Vals = make([]sql.Value, nrows)
		for i := range c.Vals {
			switch rng.Intn(5) {
			case 0:
				c.Vals[i] = numValue(randFloat())
			case 1:
				c.Vals[i] = sql.Value{Kind: sql.KindStr, Str: wireStrings[rng.Intn(len(wireStrings))]}
			case 2:
				c.Vals[i] = sql.Value{Kind: sql.KindBool, Bool: rng.Intn(2) == 0}
			case 3:
				c.Vals[i] = sql.Value{Kind: sql.KindGeom, Geom: wireGeoms[rng.Intn(len(wireGeoms))]}
			default:
				c.Vals[i] = sql.Value{Kind: sql.KindNull}
			}
		}
	}
	return res
}

// TestWireDifferential holds the append-style encoder to the bytes the
// boxed json.Marshal path produced, over the adversarial set and a seeded
// random sweep.
func TestWireDifferential(t *testing.T) {
	check := func(name string, res *sql.Result, elapsedUs int64) {
		t.Helper()
		got, want := appendReply(nil, res, elapsedUs), referenceReply(t, res, elapsedUs)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: encoder diverges from encoding/json\n got: %q\nwant: %q", name, got, want)
		}
		if !json.Valid(got) {
			t.Fatalf("%s: reply is not valid JSON: %q", name, got)
		}
	}
	for i, res := range wireResults() {
		check("adversarial "+strconv.Itoa(i), res, int64(i)*1234567)
	}
	rng := rand.New(rand.NewSource(20150831))
	for i := 0; i < 2000; i++ {
		check("random "+strconv.Itoa(i), randomResult(rng), rng.Int63n(1e9)-5)
	}
}

// TestWireDifferentialOverHTTP closes the loop through the handler: what a
// client reads for a real statement is the reference encoding of what the
// executor returns for it, under an exact Content-Length.
func TestWireDifferentialOverHTTP(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	h := srv.Handler()
	for _, q := range []string{
		`SELECT x, y, z, classification, intensity FROM ahn2
			WHERE ST_Contains(ST_MakeEnvelope(200, 200, 1200, 1200), ST_Point(x, y)) LIMIT 2000`,
		"SELECT z / 3, abs(z - 40), z * 1e308 * 1e308, intensity % 7 FROM ahn2 LIMIT 300",
		"SELECT * FROM osm LIMIT 20",
		"SELECT id, name, ST_Area(geom), ST_Centroid(geom) FROM ua ORDER BY id DESC LIMIT 7",
		"SELECT count(*), avg(z), min(z), sum(z) FROM ahn2 WHERE z > 1e9",
		"SELECT classification, count(*), min(z), max(z) FROM ahn2 GROUP BY classification",
		"SELECT class, count(*) AS n FROM osm GROUP BY class ORDER BY n DESC LIMIT 3",
		"SELECT x FROM ahn2 WHERE z > 1e9",
	} {
		res, err := srv.Exec().QueryUntracedContext(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		rec := doQuery(h, q)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", q, rec.Code, rec.Body.String())
		}
		body := rec.Body.Bytes()
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Fatalf("%s: Content-Length %q for a %d-byte body", q, cl, len(body))
		}
		tail := []byte(`,"elapsed_us":`)
		want := referenceReply(t, res, 0)
		got, want := body[:bytes.LastIndex(body, tail)], want[:bytes.LastIndex(want, tail)]
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: wire bytes diverge from the reference\n got: %.300q\nwant: %.300q", q, got, want)
		}
	}
}

// FuzzEncodeNumber: a finite number decodes back bit-exact and is spelled
// as json.Marshal spells it; the non-finite ones are their three strings.
func FuzzEncodeNumber(f *testing.F) {
	for _, v := range wireFloats {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		got := appendNumber(nil, v)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			want := `"NaN"`
			switch {
			case math.IsInf(v, 1):
				want = `"Infinity"`
			case math.IsInf(v, -1):
				want = `"-Infinity"`
			}
			if string(got) != want {
				t.Fatalf("appendNumber(%v) = %s, want %s", v, got, want)
			}
			return
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("appendNumber(%x) = %s, json.Marshal = %s", math.Float64bits(v), got, want)
		}
		back, err := strconv.ParseFloat(string(got), 64)
		if err != nil || math.Float64bits(back) != math.Float64bits(v) {
			t.Fatalf("appendNumber(%x) = %s decodes to %x (%v)", math.Float64bits(v), got, math.Float64bits(back), err)
		}
	})
}

// TestWarmEncodeZeroAllocs pins the encoder's allocation contract: into a
// buffer that has already held a reply of this size — what the recycled
// buffer is from the second navigation step on — encoding the pan.fetch
// shape (2000 rows, five numeric columns) allocates nothing.
func TestWarmEncodeZeroAllocs(t *testing.T) {
	const rows = 2000
	rng := rand.New(rand.NewSource(7))
	res := &sql.Result{Columns: []string{"x", "y", "z", "classification", "intensity"}, Cols: make([]sql.Column, 5)}
	for j := range res.Cols {
		res.Cols[j].Nums = make([]float64, rows)
		for i := range res.Cols[j].Nums {
			if j < 3 {
				res.Cols[j].Nums[i] = math.Round(rng.Float64()*3e7) / 100
			} else {
				res.Cols[j].Nums[i] = float64(rng.Intn(65536))
			}
		}
	}
	buf := appendReply(nil, res, 1)
	if allocs := testing.AllocsPerRun(20, func() { buf = appendReply(buf[:0], res, 1) }); allocs != 0 {
		t.Fatalf("warm encode of a %d-row reply allocates %.1f objects/op, want 0", rows, allocs)
	}
}
