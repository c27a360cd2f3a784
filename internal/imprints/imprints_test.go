package imprints

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"gisnav/internal/colstore"
)

func mustBuild(t *testing.T, vals []float64, opts Options) *Imprints {
	t.Helper()
	im, err := Build(vals, opts)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// naiveLines returns the set of cache lines that truly contain a value in
// [lo, hi].
func naiveLines(vals []float64, vpl int, lo, hi float64) map[int]bool {
	out := map[int]bool{}
	for i, v := range vals {
		if v >= lo && v <= hi {
			out[i/vpl] = true
		}
	}
	return out
}

func TestEmptyColumn(t *testing.T) {
	im := mustBuild(t, nil, Options{})
	if im.N() != 0 || im.Lines() != 0 {
		t.Fatal("empty imprints should be empty")
	}
	if im.CandidateLines(0, 1) != nil {
		t.Fatal("empty imprints should return no candidates")
	}
	if im.CandidateRanges(0, 1) != nil {
		t.Fatal("empty imprints should return no ranges")
	}
	if im.OverheadPercent() != 0 || im.CompressionRatio() != 0 {
		t.Fatal("empty stats should be zero")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Build([]float64{1}, Options{Bits: 12}); err == nil {
		t.Fatal("bits=12 should be rejected")
	}
	if _, err := Build([]float64{1}, Options{ValuesPerLine: -1}); err == nil {
		t.Fatal("negative vpl should be rejected")
	}
	if _, err := Build([]float64{1}, Options{SampleSize: 1}); err == nil {
		t.Fatal("sample size 1 should be rejected")
	}
	for _, bits := range []int{8, 16, 32, 64} {
		if _, err := Build([]float64{1, 2, 3}, Options{Bits: bits}); err != nil {
			t.Fatalf("bits=%d rejected: %v", bits, err)
		}
	}
}

func TestCandidateSupersetExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 10_000)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 100
	}
	im := mustBuild(t, vals, Options{})
	for iter := 0; iter < 200; iter++ {
		lo := rng.Float64()*400 - 200
		hi := lo + rng.Float64()*100
		truth := naiveLines(vals, im.vpl, lo, hi)
		cand := map[int]bool{}
		for _, l := range im.CandidateLines(lo, hi) {
			cand[l] = true
		}
		for l := range truth {
			if !cand[l] {
				t.Fatalf("query [%v,%v]: line %d holds a match but was not flagged", lo, hi, l)
			}
		}
	}
}

func TestCandidateRangesMatchLines(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	im := mustBuild(t, vals, Options{ValuesPerLine: 16})
	for iter := 0; iter < 100; iter++ {
		lo := rng.Float64() * 1000
		hi := lo + rng.Float64()*200
		lines := im.CandidateLines(lo, hi)
		ranges := im.CandidateRanges(lo, hi)
		// Every line's rows must be covered by the ranges and vice versa.
		rows := 0
		for _, l := range lines {
			start := l * 16
			end := start + 16
			if end > len(vals) {
				end = len(vals)
			}
			rows += end - start
			for r := start; r < end; r++ {
				if !colstore.RangesContain(ranges, r) {
					t.Fatalf("row %d of line %d missing from ranges", r, l)
				}
			}
		}
		if got := colstore.RangesLen(ranges); got != rows {
			t.Fatalf("ranges cover %d rows, lines cover %d", got, rows)
		}
		// Ranges must be sorted and disjoint.
		for i := 1; i < len(ranges); i++ {
			if ranges[i].Start < ranges[i-1].End {
				t.Fatalf("ranges overlap: %v", ranges)
			}
		}
	}
}

func TestFinalPartialLineClipped(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // vpl 8 → 2 lines, 2nd partial
	im := mustBuild(t, vals, Options{})
	rs := im.CandidateRanges(9, 10)
	if len(rs) == 0 {
		t.Fatal("no candidates for tail values")
	}
	last := rs[len(rs)-1]
	if last.End != 10 {
		t.Fatalf("tail range end = %d, want 10", last.End)
	}
}

func TestConstantColumnCompressesToOneVector(t *testing.T) {
	vals := make([]float64, 8000)
	for i := range vals {
		vals[i] = 42
	}
	im := mustBuild(t, vals, Options{})
	if im.VectorCount() != 1 {
		t.Fatalf("constant column stored %d vectors, want 1", im.VectorCount())
	}
	if len(im.counts) != 1 {
		t.Fatalf("dict entries = %d, want 1", len(im.counts))
	}
	if got := im.CompressionRatio(); got != 1000 {
		t.Fatalf("compression ratio = %v, want 1000", got)
	}
	// All lines are candidates for 42, none for 43+.
	if len(im.CandidateLines(42, 42)) != 1000 {
		t.Fatal("value query should flag all lines")
	}
	if len(im.CandidateLines(43.5, 44)) != 0 {
		t.Fatal("out-of-range query must flag nothing")
	}
}

func TestClusteredBeatsShuffledCompression(t *testing.T) {
	// Clustered data (sorted) compresses far better than shuffled, while
	// candidate filtering stays correct for both — the robustness claim of
	// §2.1.1.
	rng := rand.New(rand.NewSource(7))
	clustered := make([]float64, 50_000)
	for i := range clustered {
		clustered[i] = float64(i) / 50 // gently increasing
	}
	shuffled := append([]float64(nil), clustered...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	imC := mustBuild(t, clustered, Options{})
	imS := mustBuild(t, shuffled, Options{})
	if imC.CompressionRatio() <= imS.CompressionRatio() {
		t.Fatalf("clustered ratio %v should beat shuffled %v", imC.CompressionRatio(), imS.CompressionRatio())
	}
	// Shuffled imprints are still exact (superset invariant).
	truth := naiveLines(shuffled, imS.vpl, 100, 120)
	cand := map[int]bool{}
	for _, l := range imS.CandidateLines(100, 120) {
		cand[l] = true
	}
	for l := range truth {
		if !cand[l] {
			t.Fatal("shuffled imprints lost a matching line")
		}
	}
	// Clustered candidates are selective: a narrow range flags few lines.
	frac := imC.CandidateFraction(100, 120)
	if frac > 0.05 {
		t.Fatalf("clustered candidate fraction = %v, want < 0.05", frac)
	}
}

func TestOverheadWithinPaperBand(t *testing.T) {
	// On clustered data at 64 bins / 8 values per line the overhead must be
	// in the single-digit percent band the paper reports (5–12%).
	vals := make([]float64, 200_000)
	for i := range vals {
		vals[i] = float64(i%1000) + float64(i)/1e4
	}
	im := mustBuild(t, vals, Options{})
	if ov := im.OverheadPercent(); ov > 15 {
		t.Fatalf("overhead = %.2f%%, want within ~paper band (<15%%)", ov)
	}
}

func TestNaNValuesNeverLost(t *testing.T) {
	vals := []float64{1, 2, math.NaN(), 4, 5, 6, 7, 8}
	im := mustBuild(t, vals, Options{})
	// NaN sits in the last bin; a query touching that bin flags the line.
	// More importantly: building must not panic and all real values remain
	// findable.
	truth := naiveLines(vals, im.vpl, 4, 6)
	cand := im.CandidateLines(4, 6)
	if len(truth) > 0 && len(cand) == 0 {
		t.Fatal("NaN in line hid real matches")
	}
}

func TestInvertedRangeIsEmpty(t *testing.T) {
	im := mustBuild(t, []float64{1, 2, 3}, Options{})
	if im.CandidateLines(5, 1) != nil {
		t.Fatal("inverted range should have no candidates")
	}
}

func TestFewDistinctValues(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i % 3) // only 0,1,2
	}
	im := mustBuild(t, vals, Options{})
	for q := 0.0; q <= 2; q++ {
		truth := naiveLines(vals, im.vpl, q, q)
		cand := map[int]bool{}
		for _, l := range im.CandidateLines(q, q) {
			cand[l] = true
		}
		for l := range truth {
			if !cand[l] {
				t.Fatalf("value %v: line %d lost", q, l)
			}
		}
	}
}

func TestBuildColumnTypedPaths(t *testing.T) {
	f := colstore.NewNum([]float64{5, 6, 7, 8})
	imF, err := BuildColumn(f, Options{})
	if err != nil || imF.N() != 4 {
		t.Fatalf("f64 path: %v", err)
	}
	u := colstore.NewNum([]uint16{5, 6, 7, 8})
	imU, err := BuildColumn(u, Options{})
	if err != nil || imU.N() != 4 {
		t.Fatalf("u16 path: %v", err)
	}
	// Both should flag the single line for a covering query.
	if len(imF.CandidateLines(5, 8)) != 1 || len(imU.CandidateLines(5, 8)) != 1 {
		t.Fatal("single line should be flagged")
	}
}

func TestStatsSnapshot(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	im := mustBuild(t, vals, Options{ValuesPerLine: 10, Bits: 16})
	s := im.Stats()
	if s.N != 100 || s.Lines != 10 || s.Bits != 16 || s.ValuesPerLine != 10 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Bytes != im.Bytes() || s.Bytes <= 0 {
		t.Fatalf("bytes = %d", s.Bytes)
	}
	if s.Vectors != im.VectorCount() || s.DictEntries != len(im.counts) {
		t.Fatal("stats counters inconsistent")
	}
}

func TestBitsVariantsStaySound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = rng.Float64() * 1e6
	}
	for _, bits := range []int{8, 16, 32, 64} {
		im := mustBuild(t, vals, Options{Bits: bits})
		for iter := 0; iter < 50; iter++ {
			lo := rng.Float64() * 1e6
			hi := lo + rng.Float64()*1e5
			truth := naiveLines(vals, im.vpl, lo, hi)
			cand := map[int]bool{}
			for _, l := range im.CandidateLines(lo, hi) {
				cand[l] = true
			}
			for l := range truth {
				if !cand[l] {
					t.Fatalf("bits=%d: line %d lost", bits, l)
				}
			}
		}
		// Fewer bins must never flag fewer lines than more bins would need.
		if im.Bits() != bits {
			t.Fatalf("bits = %d, want %d", im.Bits(), bits)
		}
	}
}

func TestMoreBitsMoreSelective(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	vals := make([]float64, 100_000)
	for i := range vals {
		vals[i] = rng.Float64() * 1e6
	}
	im8 := mustBuild(t, vals, Options{Bits: 8})
	im64 := mustBuild(t, vals, Options{Bits: 64})
	var f8, f64sum float64
	for iter := 0; iter < 30; iter++ {
		lo := rng.Float64() * 9e5
		hi := lo + 1e4
		f8 += im8.CandidateFraction(lo, hi)
		f64sum += im64.CandidateFraction(lo, hi)
	}
	if f64sum >= f8 {
		t.Fatalf("64-bin fraction (%v) should be below 8-bin fraction (%v)", f64sum, f8)
	}
}

func TestRepeatRunCarving(t *testing.T) {
	// Data designed to produce: distinct, run of identical, distinct.
	vpl := 4
	vals := []float64{
		1, 2, 3, 4, // line 0: low values
		100, 100, 100, 100, // line 1: same vector as lines 2,3
		100, 100, 100, 100,
		100, 100, 100, 100,
		1, 2, 3, 4, // line 4: back to low
	}
	im := mustBuild(t, vals, Options{ValuesPerLine: vpl, SampleSize: 16})
	if im.Lines() != 5 {
		t.Fatalf("lines = %d", im.Lines())
	}
	// Lines 1-3 collapse into one repeat entry → at most 3 stored vectors.
	if im.VectorCount() > 3 {
		t.Fatalf("stored vectors = %d, want <= 3", im.VectorCount())
	}
	// Candidates for the 100s are exactly lines 1..3.
	lines := im.CandidateLines(99, 101)
	want := []int{1, 2, 3}
	if len(lines) != 3 {
		t.Fatalf("candidate lines = %v", lines)
	}
	for i, l := range lines {
		if l != want[i] {
			t.Fatalf("candidate lines = %v, want %v", lines, want)
		}
	}
}

// Property: for random data and random queries, every matching row lies in a
// candidate range (the imprint superset invariant the filter step relies on).
func TestQuickSupersetInvariant(t *testing.T) {
	f := func(raw []float64, loSeed, widthSeed uint8) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		im, err := Build(vals, Options{ValuesPerLine: 4, SampleSize: 64})
		if err != nil {
			return false
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		lo := sorted[int(loSeed)%len(sorted)]
		hi := lo + math.Abs(sorted[int(widthSeed)%len(sorted)])/2
		ranges := im.CandidateRanges(lo, hi)
		for i, v := range vals {
			if v >= lo && v <= hi && !colstore.RangesContain(ranges, i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectRangesWithImprints(t *testing.T) {
	// Simulates combining X and Y imprint candidates.
	a := []colstore.Range{{Start: 0, End: 64}, {Start: 128, End: 192}, {Start: 256, End: 320}}
	b := []colstore.Range{{Start: 32, End: 160}, {Start: 300, End: 400}}
	got := colstore.IntersectRanges(a, b)
	want := []colstore.Range{{Start: 32, End: 64}, {Start: 128, End: 160}, {Start: 300, End: 320}}
	if len(got) != len(want) {
		t.Fatalf("intersection = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("intersection = %v, want %v", got, want)
		}
	}
	if colstore.IntersectRanges(a, nil) != nil {
		t.Fatal("intersection with empty should be empty")
	}
}
