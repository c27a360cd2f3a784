package imprints

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"gisnav/internal/colstore"
)

// bruteLines is the reference the zone walk is held to: every line's vector
// recomputed from the values and tested against the query mask one by one —
// no dictionary, no zones.
func bruteLines(im *Imprints, vals []float64, lo, hi float64) []int {
	mask := im.queryMask(lo, hi)
	var out []int
	for start := 0; start < len(vals); start += im.vpl {
		var vec uint64
		for _, v := range vals[start:min(start+im.vpl, len(vals))] {
			vec |= 1 << uint(im.binOf(v))
		}
		if vec&mask != 0 {
			out = append(out, start/im.vpl)
		}
	}
	return out
}

// linesToRanges merges consecutive lines into row ranges, clipping the
// final partial line — what CandidateRangesInto produced before the zone
// level existed.
func linesToRanges(lines []int, vpl, n int) []colstore.Range {
	var out []colstore.Range
	for _, l := range lines {
		start, end := l*vpl, min((l+1)*vpl, n)
		if k := len(out); k > 0 && out[k-1].End == start {
			out[k-1].End = end
		} else {
			out = append(out, colstore.Range{Start: start, End: end})
		}
	}
	return out
}

// coalesce merges adjacent ranges: the list one unbounded batch yields from
// the concatenation of bounded ones.
func coalesce(rs []colstore.Range) []colstore.Range {
	var out []colstore.Range
	for _, r := range rs {
		if k := len(out); k > 0 && out[k-1].End == r.Start {
			out[k-1].End = r.End
		} else {
			out = append(out, r)
		}
	}
	return out
}

// checkWalks holds every consumer of the zone walk to its reference for one
// column pair and one interval pair: the one-term walks to the brute-force
// per-line scan, the conjunctive walk to the intersection of the one-term
// range lists, and a Cursor drained in batches of at least budget rows to
// the conjunctive walk.
func checkWalks(t *testing.T, xs, ys []float64, opts Options, budget int, xlo, xhi, ylo, yhi float64) {
	t.Helper()
	imX, imY := mustBuild(t, xs, opts), mustBuild(t, ys, opts)
	ctx := fmt.Sprintf("n=%d bits=%d vpl=%d x∈[%v,%v] y∈[%v,%v]",
		len(xs), imX.bits, imX.vpl, xlo, xhi, ylo, yhi)

	for _, c := range []struct {
		im     *Imprints
		vals   []float64
		lo, hi float64
	}{{imX, xs, xlo, xhi}, {imY, ys, ylo, yhi}} {
		want := bruteLines(c.im, c.vals, c.lo, c.hi)
		if got := c.im.CandidateLines(c.lo, c.hi); !slices.Equal(got, want) {
			t.Fatalf("%s: CandidateLines = %v, brute force %v", ctx, got, want)
		}
		wantRanges := linesToRanges(want, c.im.vpl, c.im.n)
		if got := c.im.CandidateRanges(c.lo, c.hi); !slices.Equal(got, wantRanges) {
			t.Fatalf("%s: CandidateRanges = %v, brute force %v", ctx, got, wantRanges)
		}
		wantFrac := 0.0
		if c.im.lines > 0 {
			wantFrac = float64(len(want)) / float64(c.im.lines)
		}
		if got := c.im.CandidateFraction(c.lo, c.hi); got != wantFrac {
			t.Fatalf("%s: CandidateFraction = %v, brute force %v", ctx, got, wantFrac)
		}
	}

	want := colstore.IntersectRangesInto(
		imX.CandidateRangesInto(xlo, xhi, nil), imY.CandidateRangesInto(ylo, yhi, nil), nil)
	got, zs, err := ConjunctiveRangesInto([]Term{{imX, xlo, xhi}, {imY, ylo, yhi}}, nil)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: conjunctive walk = %v, intersected lists %v", ctx, got, want)
	}
	if zones := (imX.lines + zoneLines - 1) / zoneLines; zs.Total != zones || zs.Hit < 0 || zs.Hit > zones {
		t.Fatalf("%s: zone stats %+v over %d zones", ctx, zs, zones)
	}
	cur, err := NewCursor([]Term{{imX, xlo, xhi}, {imY, ylo, yhi}})
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	var batches []colstore.Range
	for !cur.Done() {
		batch := cur.AppendRanges(nil, budget)
		if rows := colstore.RangesLen(batch); rows < budget && !cur.Done() {
			t.Fatalf("%s: batch of %d rows under budget %d before the walk ended", ctx, rows, budget)
		}
		batches = append(batches, batch...)
	}
	if got := coalesce(batches); !slices.Equal(got, want) {
		t.Fatalf("%s: cursor batches of %d = %v, one walk %v", ctx, budget, got, want)
	}
	if cur.Stats() != zs {
		t.Fatalf("%s: cursor zone stats %+v, one walk %+v", ctx, cur.Stats(), zs)
	}
	// Term order is the walk's business, not the caller's.
	if swapped, _, _ := ConjunctiveRangesInto([]Term{{imY, ylo, yhi}, {imX, xlo, xhi}}, nil); !slices.Equal(swapped, want) {
		t.Fatalf("%s: swapped terms = %v, want %v", ctx, swapped, want)
	}
}

// walkColumn generates one test column of n values. Every kind but
// "constant" gets NaN and ±Inf sprinkled in when dirty is set.
func walkColumn(rng *rand.Rand, kind string, n int, dirty bool) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		switch kind {
		case "clustered": // slow drift with long flat stretches: repeat entries spanning zones
			vals[i] = float64(i / 700 * 10)
		case "sawtooth": // tile-like: the same short sweep again and again
			vals[i] = float64(i % 97)
		case "shuffled":
			vals[i] = rng.Float64() * 1000
		case "constant":
			vals[i] = 42
		}
	}
	if dirty && kind != "constant" {
		for k := 0; k < n/50+1 && n > 0; k++ {
			vals[rng.Intn(n)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[k%3]
		}
	}
	return vals
}

// walkIntervals returns the query intervals to try on vals: random ones
// plus every degenerate shape the mask builder has to survive.
func walkIntervals(rng *rand.Rand, vals []float64) [][2]float64 {
	nan, inf := math.NaN(), math.Inf(1)
	out := [][2]float64{
		{-inf, inf},        // whole domain
		{5, 1},             // inverted
		{nan, 10},          // NaN bounds
		{10, nan},          //
		{nan, nan},         //
		{-inf, 50},         // half-infinite
		{50, inf},          //
		{inf, inf},         //
		{-inf, -inf},       //
		{42, 42},           // point
		{0.25, 0.75},       // between integral values: a bin nothing may occupy
		{1e9, 2e9},         // beyond the data
		{-2e9, -1e9},       //
		{41.999, 42.00001}, //
	}
	finite := make([]float64, 0, len(vals))
	for _, v := range vals {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			finite = append(finite, v)
		}
	}
	sort.Float64s(finite)
	for k := 0; k < 6 && len(finite) > 0; k++ {
		a, b := finite[rng.Intn(len(finite))], finite[rng.Intn(len(finite))]
		out = append(out, [2]float64{min(a, b), max(a, b)})
	}
	return out
}

// TestZoneWalkMatchesReferences is the property the filter step rests on:
// whatever the data layout, length, bin count, line width or interval, the
// zone-skipping walks return exactly what the flat per-line scan and the
// materialise-then-intersect plan returned.
func TestZoneWalkMatchesReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	kinds := []string{"clustered", "sawtooth", "shuffled", "constant"}
	for _, vpl := range []int{1, 8, 64} {
		// Lengths straddling line edges, zone edges (64 lines) and both.
		lengths := []int{0, 1, 7, 8, 9, 511, 512, 513}
		for k := 1; k <= 3; k++ {
			zone := zoneLines * vpl * k
			lengths = append(lengths, zone-1, zone, zone+1, zone+vpl, zone+vpl+1)
		}
		for _, n := range lengths {
			for _, nbits := range []int{8, 16, 32, 64} {
				opts := Options{Bits: nbits, ValuesPerLine: vpl, SampleSize: 256}
				xkind, ykind := kinds[rng.Intn(len(kinds))], kinds[rng.Intn(len(kinds))]
				xs := walkColumn(rng, xkind, n, rng.Intn(2) == 0)
				ys := walkColumn(rng, ykind, n, rng.Intn(2) == 0)
				xiv, yiv := walkIntervals(rng, xs), walkIntervals(rng, ys)
				for i, xi := range xiv {
					yi := yiv[(i*7+3)%len(yiv)]
					budget := []int{1, vpl, zoneLines * vpl, 3000}[rng.Intn(4)]
					checkWalks(t, xs, ys, opts, budget, xi[0], xi[1], yi[0], yi[1])
				}
			}
		}
	}
}

// TestConjunctiveThreeTerms checks the N-term form against chained
// intersection, with dictionaries of three different sizes so the
// cheapest-first ordering actually permutes the terms.
func TestConjunctiveThreeTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const n = 5000
	a := walkColumn(rng, "shuffled", n, true)
	b := walkColumn(rng, "clustered", n, false)
	c := walkColumn(rng, "sawtooth", n, true)
	opts := Options{ValuesPerLine: 4, SampleSize: 128}
	imA, imB, imC := mustBuild(t, a, opts), mustBuild(t, b, opts), mustBuild(t, c, opts)
	for iter := 0; iter < 50; iter++ {
		alo, blo, clo := rng.Float64()*800, rng.Float64()*60, rng.Float64()*80
		ahi, bhi, chi := alo+rng.Float64()*400, blo+rng.Float64()*30, clo+rng.Float64()*40
		want := colstore.IntersectRanges(
			colstore.IntersectRanges(imA.CandidateRanges(alo, ahi), imB.CandidateRanges(blo, bhi)),
			imC.CandidateRanges(clo, chi))
		got, _, err := ConjunctiveRangesInto([]Term{{imA, alo, ahi}, {imB, blo, bhi}, {imC, clo, chi}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("three-term walk = %v, chained intersection %v", got, want)
		}
	}
}

// TestConjunctiveAppendsAfterPrefix pins the Into contract: existing
// elements survive, and a first candidate adjacent to the last of them
// merges into it.
func TestConjunctiveAppendsAfterPrefix(t *testing.T) {
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i)
	}
	im := mustBuild(t, vals, Options{})
	terms := []Term{{im, 16, 40}, {im, 0, 63}}
	plain, _, _ := ConjunctiveRangesInto(terms, nil)
	if len(plain) != 1 || plain[0] != (colstore.Range{Start: 16, End: 48}) {
		t.Fatalf("walk = %v", plain)
	}
	apart, _, _ := ConjunctiveRangesInto(terms, []colstore.Range{{Start: 0, End: 8}})
	if !slices.Equal(apart, []colstore.Range{{Start: 0, End: 8}, {Start: 16, End: 48}}) {
		t.Fatalf("after a detached prefix: %v", apart)
	}
	adjacent, _, _ := ConjunctiveRangesInto(terms, []colstore.Range{{Start: 0, End: 16}})
	if !slices.Equal(adjacent, []colstore.Range{{Start: 0, End: 48}}) {
		t.Fatalf("after an adjacent prefix: %v", adjacent)
	}
}

// TestConjunctiveRejectsMismatchedTerms: terms over columns of different
// length or line width do not describe the same rows per line; the walk
// refuses them and leaves out alone.
func TestConjunctiveRejectsMismatchedTerms(t *testing.T) {
	vals := make([]float64, 100)
	im := mustBuild(t, vals, Options{})
	shorter := mustBuild(t, vals[:99], Options{})
	wider := mustBuild(t, vals, Options{ValuesPerLine: 16})
	prefix := []colstore.Range{{Start: 0, End: 1}}
	for name, terms := range map[string][]Term{
		"no terms":         nil,
		"different length": {{im, 0, 1}, {shorter, 0, 1}},
		"different vpl":    {{im, 0, 1}, {wider, 0, 1}},
		"five terms":       {{im, 0, 1}, {im, 0, 1}, {im, 0, 1}, {im, 0, 1}, {im, 0, 1}},
	} {
		out, zs, err := ConjunctiveRangesInto(terms, prefix)
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if !slices.Equal(out, prefix) || zs != (ZoneStats{}) {
			t.Fatalf("%s: out = %v, stats %+v; want the input back", name, out, zs)
		}
	}
}

// TestZoneWalkSkipsZones: on clustered data a narrow query must reject
// almost every zone on the OR alone, and the zone arrays must be counted in
// the footprint.
func TestZoneWalkSkipsZones(t *testing.T) {
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = float64(i)
	}
	im := mustBuild(t, vals, Options{})
	_, zs, err := ConjunctiveRangesInto([]Term{{im, 1000, 1100}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if zs.Total != 128 || zs.Hit == 0 || zs.Hit > 8 {
		t.Fatalf("zone stats = %+v, want a handful of 128 zones", zs)
	}
	flat := len(im.vectors)*8 + len(im.counts)*4 + len(im.bounds)*8 + len(im.binCounts)*4
	if got := im.Bytes() - flat; got != 128*20 {
		t.Fatalf("zone level accounts for %d bytes, want %d", got, 128*20)
	}
}

// fuzzColumn spells a column from fuzz bytes: most bytes are small values
// (so runs and repeats form), the top three codes are NaN and ±Inf.
func fuzzColumn(data []byte, salt byte) []float64 {
	vals := make([]float64, len(data))
	for i, b := range data {
		switch b ^= salt; b {
		case 255:
			vals[i] = math.NaN()
		case 254:
			vals[i] = math.Inf(1)
		case 253:
			vals[i] = math.Inf(-1)
		default:
			vals[i] = float64(b>>2) * 1.5
		}
	}
	return vals
}

// FuzzCandidateRanges drives checkWalks from fuzz input: column bytes, a
// shape selector, a cursor batch budget and raw float64 interval bounds (so
// NaN, ±Inf, −0 and inverted intervals all arrive without being
// enumerated).
func FuzzCandidateRanges(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint16(1), 0.0, 1.0, 0.0, 1.0)
	f.Add([]byte{7}, uint8(1), uint16(5), 0.0, 100.0, -1.0, 1.0)
	f.Add(make([]byte, 513), uint8(7), uint16(512), 0.0, 0.0, math.Inf(-1), math.Inf(1))
	long := make([]byte, 64*8*2+1)
	for i := range long {
		long[i] = byte(i / 40)
	}
	long[77], long[600], long[1024] = 255, 254, 253
	f.Add(long, uint8(11), uint16(100), 3.0, 12.0, math.NaN(), 9.0)
	f.Add(long, uint8(4), uint16(8), 12.0, 3.0, 0.0, 30.0)
	f.Fuzz(func(t *testing.T, data []byte, shape uint8, budget uint16, xlo, xhi, ylo, yhi float64) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		opts := Options{
			Bits:          []int{8, 16, 32, 64}[shape&3],
			ValuesPerLine: []int{1, 8, 64, 3}[shape>>2&3],
			SampleSize:    64,
		}
		checkWalks(t, fuzzColumn(data, 0), fuzzColumn(data, shape), opts, max(int(budget), 1), xlo, xhi, ylo, yhi)
	})
}

// tileOrdered lays n points out the way a tiled LIDAR load does: tile by
// tile in row-major tile order, and inside a tile scan line by scan line —
// y creeps while x sweeps the tile's width again and again. Y compresses
// into long repeat runs; X stays fragmented.
func tileOrdered(n, tilesPerSide int, extent float64) (xs, ys []float64) {
	xs, ys = make([]float64, n), make([]float64, n)
	rng := rand.New(rand.NewSource(17))
	perTile := n / (tilesPerSide * tilesPerSide)
	const perScan = 256
	side := extent / float64(tilesPerSide)
	for i := range xs {
		tile, k := min(i/perTile, tilesPerSide*tilesPerSide-1), i%perTile
		tx, ty := float64(tile%tilesPerSide)*side, float64(tile/tilesPerSide)*side
		xs[i] = tx + (float64(k%perScan)+rng.Float64())/perScan*side
		ys[i] = ty + float64(k/perScan)/float64(perTile/perScan+1)*side
	}
	return xs, ys
}

// BenchmarkCandidateRangesXY times the navigation filter step — one
// conjunctive walk over an X and a Y imprint — at three viewport sizes, and
// reports how many of the index's zones each walk had to open. The flat
// dictionary scan it replaced cost the same at every size.
func BenchmarkCandidateRangesXY(b *testing.B) {
	const n, extent = 1 << 20, 1000.0
	xs, ys := tileOrdered(n, 16, extent)
	imX, err := Build(xs, Options{})
	if err != nil {
		b.Fatal(err)
	}
	imY, err := Build(ys, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, pct := range []float64{0.25, 2, 16} {
		b.Run(fmt.Sprintf("viewport_%gpct", pct), func(b *testing.B) {
			side := extent * math.Sqrt(pct/100)
			lo, hi := extent/2-side/2, extent/2+side/2
			terms := []Term{{imX, lo, hi}, {imY, lo, hi}}
			var out []colstore.Range
			var zs ZoneStats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if out, zs, err = ConjunctiveRangesInto(terms, out[:0]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(zs.Hit), "zones/op")
			b.ReportMetric(float64(zs.Total), "zones-total")
			b.ReportMetric(float64(colstore.RangesLen(out)), "cand-rows/op")
		})
	}
}
