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

// assertJSONNumber fails t unless appendNumber spells the finite v exactly
// as json.Marshal does and the spelling decodes back to v bit for bit.
func assertJSONNumber(t *testing.T, v float64) {
	t.Helper()
	got := appendNumber(nil, v)
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
}

// assertLatticeValue asserts k·10⁻ᵖ (as float64 division rounds it), moved
// ulps steps of one ulp, and its negation.
func assertLatticeValue(t *testing.T, k int64, p uint8, ulps int) {
	t.Helper()
	v := float64(k) / math.Pow10(int(p))
	for ; ulps > 0; ulps-- {
		v = math.Nextafter(v, math.Inf(1))
	}
	for ; ulps < 0; ulps++ {
		v = math.Nextafter(v, math.Inf(-1))
	}
	assertJSONNumber(t, v)
	assertJSONNumber(t, -v)
}

// TestAppendNumberDecimalLattice holds the decimal path — and the fallback
// beside it — to json.Marshal around every edge of its rule: lattice values
// k·10⁻ᵖ at every magnitude for p up to 4 (p = 4 lies off the 3-decimal
// lattice), their one-ulp neighbours, LAS-dequantised coordinates, |k| on
// both sides of 1e15 and 16-digit k below 2^53, and the format edges.
func TestAppendNumberDecimalLattice(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for digits := 1; digits <= 16; digits++ {
		lo, hi := int64(math.Pow10(digits-1)), int64(math.Pow10(digits))
		for i := 0; i < 200; i++ {
			k := lo + rng.Int63n(hi-lo)
			for p := uint8(0); p <= 4; p++ {
				for ulps := -1; ulps <= 1; ulps++ {
					assertLatticeValue(t, k, p, ulps)
				}
			}
		}
	}
	// 9000000000000.029 rounds to a double whose shortest spelling is the
	// 15-digit 9000000000000.03: a 16-digit k is not always the answer.
	for _, k := range []int64{1e15 - 1, 1e15, 1e15 + 1, 1<<53 - 1, 1<<53 - 3, 9000000000000029, 4503599627370497} {
		for ulps := -1; ulps <= 1; ulps++ {
			assertLatticeValue(t, k, 3, ulps)
		}
	}
	for i := 0; i < 2000; i++ {
		k := 1e15 + rng.Int63n(1<<53-1e15)
		assertLatticeValue(t, k, 3, 0)
	}
	for _, offset := range []float64{0, 85000, -1000, 4e5, 123.45} {
		for i := 0; i < 2000; i++ {
			raw := rng.Int63n(1<<32) - 1<<31
			v := float64(raw)*0.01 + offset
			assertJSONNumber(t, v)
			assertJSONNumber(t, math.Nextafter(v, math.Inf(1)))
			assertJSONNumber(t, math.Nextafter(v, math.Inf(-1)))
		}
	}
	for _, v := range []float64{
		0.001, -0.001, 0.0005, 0.0015, 999999999999.999, -999999999999.999, 999999999999.9995, 1e12, 1e12 + 0.001,
		0, math.Copysign(0, -1), 0.1, 0.01, 0.5, 1.05, 2.675,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
	} {
		assertJSONNumber(t, v)
		assertJSONNumber(t, -v)
	}
}

// FuzzEncodeDecimal: the lattice value k·10⁻ᵖ (p taken mod 5), moved ulps
// ulps, is spelled as json.Marshal spells it and decodes back bit-exact.
func FuzzEncodeDecimal(f *testing.F) {
	for _, seed := range []struct {
		k    int64
		p    uint8
		ulps int8
	}{
		{1, 3, 0}, {-1, 3, 0}, {164, 2, 0}, {164, 2, 1}, {8512307, 2, -1}, {999999999999999, 3, 0},
		{1e15, 3, 0}, {1e15 - 1, 3, 1}, {9000000000000029, 3, 0}, {9457094085891197, 3, 0}, {1<<53 - 1, 3, 0}, {12345, 4, 0},
		{0, 3, 0}, {0, 3, 1}, {1, 0, 0}, {-7, 1, -1}, {90, 3, 0}, {100, 3, 0},
	} {
		f.Add(seed.k, seed.p, seed.ulps)
	}
	f.Fuzz(func(t *testing.T, k int64, p uint8, ulps int8) {
		assertLatticeValue(t, k, p%5, int(ulps))
	})
}

// TestAppendIntMatchesStrconv holds the in-place digit writer to
// strconv.AppendInt at every digit-count edge of int64 and across random
// values, appending after existing bytes and into spare capacity.
func TestAppendIntMatchesStrconv(t *testing.T) {
	vals := []int64{0, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for p := int64(1); p <= 1e18; p *= 10 {
		vals = append(vals, p-1, p, p+1, -p+1, -p, -p-1)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		vals = append(vals, rng.Int63()>>rng.Intn(63), -rng.Int63()>>rng.Intn(63))
	}
	for _, v := range vals {
		for _, dst := range []func() []byte{
			func() []byte { return nil },
			func() []byte { return []byte("[1,") },
			func() []byte { return make([]byte, 2, 40) },
		} {
			got, want := appendInt(dst(), v), strconv.AppendInt(dst(), v, 10)
			if !bytes.Equal(got, want) {
				t.Fatalf("appendInt(%q, %d) = %q, want %q", dst(), v, got, want)
			}
		}
	}
}

// panFetchResult builds the pan.fetch reply shape: rows of x, y, z from
// coord(rng, j) for column j, then classification and intensity codes.
func panFetchResult(rng *rand.Rand, rows int, coord func(rng *rand.Rand, j int) float64) *sql.Result {
	res := &sql.Result{Columns: []string{"x", "y", "z", "classification", "intensity"}, Cols: make([]sql.Column, 5)}
	for j := range res.Cols {
		res.Cols[j].Nums = make([]float64, rows)
		for i := range res.Cols[j].Nums {
			if j < 3 {
				res.Cols[j].Nums[i] = coord(rng, j)
			} else {
				res.Cols[j].Nums[i] = float64(rng.Intn(65536))
			}
		}
	}
	return res
}

// latticeCoord is a coordinate on the centimetre lattice itself: the double
// nearest a 2-decimal value, which the decimal path spells.
func latticeCoord(rng *rand.Rand, _ int) float64 { return math.Round(rng.Float64()*3e7) / 100 }

// lasCoord is a coordinate as the LAS reader loads it, float64(raw)·0.01:
// about one in eight lands one ulp off its decimal and takes the
// AppendFloat fallback. z (column 2) reaches below zero.
func lasCoord(rng *rand.Rand, j int) float64 {
	if j == 2 {
		return float64(rng.Intn(10000)-2000) * 0.01
	}
	return float64(rng.Intn(300000)) * 0.01
}

// TestWarmEncodeZeroAllocs pins the encoder's allocation contract: into a
// buffer that has already held a reply of this size — what the recycled
// buffer is from the second navigation step on — encoding the pan.fetch
// shape (2000 rows, five numeric columns) allocates nothing, on the decimal
// path and on the AppendFloat fallback alike.
func TestWarmEncodeZeroAllocs(t *testing.T) {
	const rows = 2000
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name string
		res  *sql.Result
	}{
		{"lattice", panFetchResult(rng, rows, latticeCoord)},
		{"las-scaled", panFetchResult(rng, rows, lasCoord)},
	} {
		buf := appendReply(nil, tc.res, 1)
		if allocs := testing.AllocsPerRun(20, func() { buf = appendReply(buf[:0], tc.res, 1) }); allocs != 0 {
			t.Fatalf("%s: warm encode of a %d-row reply allocates %.1f objects/op, want 0", tc.name, rows, allocs)
		}
	}
}

// BenchmarkAppendReply encodes, into a warm buffer, the pan.fetch reply
// (2000 rows × x, y, z, classification, intensity) with LAS-dequantised
// and with on-lattice coordinates, and the one-row pan.bbox reply.
func BenchmarkAppendReply(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	bbox := &sql.Result{Columns: []string{"count(*)", "avg(z)"}, Cols: []sql.Column{
		{Nums: []float64{40515}}, {Nums: []float64{13.527318461043}},
	}}
	for _, arm := range []struct {
		name string
		res  *sql.Result
	}{
		{"fetch-las", panFetchResult(rng, 2000, lasCoord)},
		{"fetch-lattice", panFetchResult(rng, 2000, latticeCoord)},
		{"bbox", bbox},
	} {
		b.Run(arm.name, func(b *testing.B) {
			buf := appendReply(nil, arm.res, 412)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			for b.Loop() {
				buf = appendReply(buf[:0], arm.res, 412)
			}
		})
	}
}
