package imprints

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// buildWithBounds is Build with the bin bounds given instead of sampled:
// the reference an extended index must equal. Like Build, it leaves an
// empty column without a histogram.
func buildWithBounds(vals, bounds []float64, bits, vpl int) *Imprints {
	im := &Imprints{bounds: bounds, bits: bits, vpl: vpl, n: len(vals)}
	if len(vals) == 0 {
		return im
	}
	im.binCounts = make([]uint32, bits)
	im.appendLines(vals, 0)
	im.buildZones(0, zoneCursor{})
	return im
}

// sameIndex requires got and want to be the same index structure, and to
// answer every interval of walkIntervals with the same candidate ranges.
func sameIndex(t *testing.T, label string, got, want *Imprints, vals []float64) {
	t.Helper()
	switch {
	case got.n != want.n || got.lines != want.lines:
		t.Fatalf("%s: n/lines %d/%d, want %d/%d", label, got.n, got.lines, want.n, want.lines)
	case !slices.Equal(got.bounds, want.bounds):
		t.Fatalf("%s: bounds differ", label)
	case !slices.Equal(got.vectors, want.vectors):
		t.Fatalf("%s: vectors %v, want %v", label, got.vectors, want.vectors)
	case !slices.Equal(got.counts, want.counts) || !slices.Equal(got.repeats, want.repeats):
		t.Fatalf("%s: dictionary %v/%v, want %v/%v", label, got.counts, got.repeats, want.counts, want.repeats)
	case !slices.Equal(got.zoneOr, want.zoneOr) || !slices.Equal(got.zoneCur, want.zoneCur):
		t.Fatalf("%s: zone level differs: %v/%v, want %v/%v", label, got.zoneOr, got.zoneCur, want.zoneOr, want.zoneCur)
	case !slices.Equal(got.binCounts, want.binCounts):
		t.Fatalf("%s: binCounts %v, want %v", label, got.binCounts, want.binCounts)
	}
	rng := rand.New(rand.NewSource(int64(len(vals))))
	for _, iv := range walkIntervals(rng, vals) {
		if g, w := got.CandidateRanges(iv[0], iv[1]), want.CandidateRanges(iv[0], iv[1]); !slices.Equal(g, w) {
			t.Fatalf("%s: [%v, %v] candidates %v, want %v", label, iv[0], iv[1], g, w)
		}
	}
}

// appendBatch appends k values in the style of kind, with NaN, ±Inf and
// values far outside any sampled bin mixed in.
func appendBatch(rng *rand.Rand, vals []float64, kind string, k int) []float64 {
	for i := 0; i < k; i++ {
		v := walkColumn(rng, kind, len(vals)+1, false)[len(vals)]
		switch rng.Intn(40) {
		case 0:
			v = math.NaN()
		case 1:
			v = math.Inf(1 - 2*rng.Intn(2))
		case 2:
			v = 1e12 * float64(1-2*rng.Intn(2))
		}
		vals = append(vals, v)
	}
	return vals
}

// TestExtendMatchesBuildWithBounds appends random batch sequences whose
// sizes straddle line and zone edges (0, 1, vpl−1, vpl, 64·vpl±1) and
// holds every extended index to a build over the whole column with the
// first build's bounds: vectors, dictionary, zone level, histogram and
// candidate ranges.
func TestExtendMatchesBuildWithBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, vpl := range []int{1, 3, 8} {
		sizes := []int{0, 1, vpl - 1, vpl, zoneLines*vpl - 1, zoneLines*vpl + 1}
		for _, kind := range []string{"clustered", "sawtooth", "shuffled", "constant"} {
			for trial := 0; trial < 4; trial++ {
				opts := Options{Bits: []int{8, 16, 32, 64}[trial], ValuesPerLine: vpl, SampleSize: 64}
				vals := walkColumn(rng, kind, rng.Intn(3*zoneLines*vpl), true)
				im := mustBuild(t, vals, opts)
				for step := 0; step < 12; step++ {
					vals = appendBatch(rng, vals, kind, sizes[rng.Intn(len(sizes))])
					prev := im
					im = Extend(im, vals)
					want := buildWithBounds(vals, prev.bounds, opts.Bits, vpl)
					sameIndex(t, kind, im, want, vals)
					if im.built != prev.built {
						t.Fatalf("%s: Extend moved built from %d to %d", kind, prev.built, im.built)
					}
				}
			}
		}
	}
}

// TestExtendLeavesOldIntact checks the old index still answers over its
// own rows after an Extend: a query may hold it across the append.
func TestExtendLeavesOldIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := walkColumn(rng, "clustered", 8*zoneLines*3+5, true)
	old := mustBuild(t, vals, Options{SampleSize: 64})
	want := buildWithBounds(vals, old.bounds, old.bits, old.vpl)
	grown := appendBatch(rng, slices.Clone(vals), "sawtooth", 8*zoneLines+3)
	Extend(old, grown)
	sameIndex(t, "old after extend", old, want, vals)
}

// TestOutgrownDoublingRule pins the rebuild rule: bins resample only once
// the rows appended since the last full build exceed the rows it sampled.
func TestOutgrownDoublingRule(t *testing.T) {
	vals := make([]float64, 1000)
	im := mustBuild(t, vals, Options{})
	if im.Outgrown(2000) || !im.Outgrown(2001) {
		t.Fatalf("1000-row build: Outgrown(2000) = %v, Outgrown(2001) = %v", im.Outgrown(2000), im.Outgrown(2001))
	}
	if empty := mustBuild(t, nil, Options{}); !empty.Outgrown(1) {
		t.Fatal("an empty build must resample on the first append")
	}
	ext := Extend(im, make([]float64, 1900))
	if ext.Outgrown(2000) || !ext.Outgrown(2001) {
		t.Fatal("Extend must carry the sampled row count")
	}
}

// FuzzImprintsExtend splits a fuzzed column at two fuzzed lengths: a build
// over the first prefix, extended to the second prefix and then to the
// whole column, must equal builds over those columns with the first
// build's bounds.
func FuzzImprintsExtend(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint16(0), uint16(0))
	f.Add([]byte{7, 7, 7, 7, 9}, uint8(1), uint16(2), uint16(3))
	long := make([]byte, 64*8*2+5)
	for i := range long {
		long[i] = byte(i / 40)
	}
	long[77], long[600], long[1024] = 255, 254, 253
	f.Add(long, uint8(13), uint16(511), uint16(513))
	f.Add(long, uint8(4), uint16(8), uint16(1000))
	f.Fuzz(func(t *testing.T, data []byte, shape uint8, cut1, cut2 uint16) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		opts := Options{
			Bits:          []int{8, 16, 32, 64}[shape&3],
			ValuesPerLine: []int{1, 8, 64, 3}[shape>>2&3],
			SampleSize:    64,
		}
		vals := fuzzColumn(data, shape)
		a := int(cut1) % (len(vals) + 1)
		b := a + int(cut2)%(len(vals)-a+1)
		im, err := Build(vals[:a], opts)
		if err != nil {
			t.Fatal(err)
		}
		bounds := im.bounds
		im = Extend(im, vals[:b])
		sameIndex(t, "first extend", im, buildWithBounds(vals[:b], bounds, opts.Bits, opts.ValuesPerLine), vals[:b])
		im = Extend(im, vals)
		sameIndex(t, "second extend", im, buildWithBounds(vals, bounds, opts.Bits, opts.ValuesPerLine), vals)
	})
}
