// Package imprints implements column imprints (Sidirourgos & Kersten,
// SIGMOD 2013), the lightweight cache-conscious secondary index MonetDB uses
// for the coarse filtering step of spatial selections (paper §2.1.1, §3.3).
//
// An imprint is a collection of small bit vectors, one per cache line of
// column data. Each bit corresponds to one of up to 64 value ranges (bins)
// whose boundaries are chosen from a sample of the column so that values
// spread evenly across bins. A bit is set when the cache line holds at least
// one value in that bin. A range predicate is answered by building the bit
// mask of bins overlapping the queried interval and flagging every cache
// line whose imprint intersects the mask — a superset of the cache lines
// holding matches, touched in a single sequential pass over the (compressed)
// imprint array.
//
// Consecutive identical imprint vectors — the common case on data with
// local clustering, such as tiled LIDAR scans — are collapsed through a
// cacheline dictionary: a list of (count, repeat) entries where a repeat
// entry says "the next count cache lines all share the following single
// imprint vector". Storage is typically a few percent of the indexed column.
//
// Above the dictionary sits a zone level: per zone of 64 cache lines, the OR
// of the zone's vectors plus the dictionary position of its first line. A
// query rejects a whole zone on the OR before it touches the dictionary, so
// the filter costs O(zones) + O(candidate zones) instead of O(lines); every
// candidate query — one column or a conjunction of several (zone.go) — runs
// through that one walk.
//
// Every level grows only at the tail, so an index over an append-only
// column extends over new rows without a rebuild (Extend, extend.go).
package imprints

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"gisnav/internal/colstore"
)

// DefaultBits is the default number of bins (one 64-bit vector per line).
const DefaultBits = 64

// DefaultValuesPerLine mirrors a 64-byte cache line of float64 values.
const DefaultValuesPerLine = 8

// DefaultSampleSize is the number of values sampled to place bin boundaries.
const DefaultSampleSize = 2048

// Options configures imprint construction.
type Options struct {
	// Bits is the number of bins; one of 8, 16, 32, 64. Defaults to 64.
	Bits int
	// ValuesPerLine is the number of consecutive values indexed by one
	// imprint vector. The natural choice is cacheline bytes / element size
	// (8 for float64 on 64-byte lines). Defaults to 8.
	ValuesPerLine int
	// SampleSize bounds the number of values sampled for bin boundaries.
	// Defaults to 2048.
	SampleSize int
}

func (o Options) withDefaults() Options {
	if o.Bits == 0 {
		o.Bits = DefaultBits
	}
	if o.ValuesPerLine == 0 {
		o.ValuesPerLine = DefaultValuesPerLine
	}
	if o.SampleSize == 0 {
		o.SampleSize = DefaultSampleSize
	}
	return o
}

func (o Options) validate() error {
	switch o.Bits {
	case 8, 16, 32, 64:
	default:
		return fmt.Errorf("imprints: bits must be 8, 16, 32 or 64, got %d", o.Bits)
	}
	if o.ValuesPerLine < 1 {
		return fmt.Errorf("imprints: values per line must be positive, got %d", o.ValuesPerLine)
	}
	if o.SampleSize < 2 {
		return fmt.Errorf("imprints: sample size must be at least 2, got %d", o.SampleSize)
	}
	return nil
}

// Imprints is an immutable secondary index over one column.
type Imprints struct {
	bounds []float64 // ascending bin upper boundaries; len = bits-1
	bits   int
	vpl    int // values per line
	n      int // number of indexed values

	// Cacheline dictionary: entry i covers counts[i] cache lines. When
	// repeats[i] is true those lines share one imprint vector; otherwise
	// each line has its own vector. vectors holds the stored vectors in
	// entry order.
	vectors []uint64
	counts  []uint32
	repeats []bool
	lines   int // total cache lines covered

	// Zone level (zone.go): zone z summarises lines [64z, 64z+64). zoneOr[z]
	// is the OR of their vectors, zoneCur[z] where the dictionary stands at
	// the zone's first line. Written once by Build, like the dictionary.
	zoneOr  []uint64
	zoneCur []zoneCursor

	// binCounts is the value histogram over bins, filled during
	// construction. Query operators use it as a selectivity estimate to
	// size result vectors before scanning (every value matching a range
	// predicate lies in a bin overlapping the range).
	binCounts []uint32

	// built is the row count the bounds were sampled from: Build sets it,
	// Extend carries it, Outgrown compares against it.
	built int
}

// Build constructs imprints over vals. The input is not retained.
func Build(vals []float64, opts Options) (*Imprints, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	im := &Imprints{
		bits:  opts.Bits,
		vpl:   opts.ValuesPerLine,
		n:     len(vals),
		built: len(vals),
	}
	if len(vals) == 0 {
		return im, nil
	}
	im.bounds = sampleBounds(vals, opts.Bits, opts.SampleSize)
	im.binCounts = make([]uint32, im.bits)
	im.appendLines(vals, 0)
	im.buildZones(0, zoneCursor{})
	return im, nil
}

// BuildColumn constructs imprints over a colstore column, using the fast
// typed path where available.
func BuildColumn(col colstore.Column, opts Options) (*Imprints, error) {
	switch t := col.(type) {
	case *colstore.F64Column:
		return Build(t.Values(), opts)
	default:
		vals := make([]float64, col.Len())
		for i := range vals {
			vals[i] = col.Value(i)
		}
		return Build(vals, opts)
	}
}

// sampleBounds picks bits-1 ascending boundaries from a uniform sample so
// that sampled values spread roughly evenly over bins.
func sampleBounds(vals []float64, bits, sampleSize int) []float64 {
	step := len(vals) / sampleSize
	if step < 1 {
		step = 1
	}
	sample := make([]float64, 0, len(vals)/step+1)
	for i := 0; i < len(vals); i += step {
		v := vals[i]
		if math.IsNaN(v) {
			continue
		}
		sample = append(sample, v)
	}
	if len(sample) == 0 {
		sample = append(sample, 0)
	}
	sort.Float64s(sample)
	// Deduplicate to avoid zero-width bins.
	distinct := sample[:1]
	for _, v := range sample[1:] {
		if v != distinct[len(distinct)-1] {
			distinct = append(distinct, v)
		}
	}
	nb := bits - 1
	if len(distinct) <= nb {
		// Few distinct values: one boundary per distinct value.
		return append([]float64(nil), distinct...)
	}
	bounds := make([]float64, 0, nb)
	for i := 1; i <= nb; i++ {
		idx := i * len(distinct) / (nb + 1)
		b := distinct[idx]
		if len(bounds) == 0 || b != bounds[len(bounds)-1] {
			bounds = append(bounds, b)
		}
	}
	return bounds
}

// binOf returns the bin index of v: the number of boundaries below v, i.e.
// bin i covers (bounds[i-1], bounds[i]] with virtual -inf/+inf edges. NaN
// values are assigned to the last bin so they never silently disappear
// from candidate sets.
func (im *Imprints) binOf(v float64) int {
	if math.IsNaN(v) {
		return im.lastBin()
	}
	// sort.SearchFloat64s returns the first index with bounds[i] >= v.
	return sort.SearchFloat64s(im.bounds, v)
}

// lastBin returns the highest usable bin index.
func (im *Imprints) lastBin() int { return len(im.bounds) }

// appendLines computes the vectors of the cache lines starting at row
// start (a line boundary) and appends them to the dictionary, accumulating
// the per-bin value histogram along the way.
func (im *Imprints) appendLines(vals []float64, start int) {
	for ; start < len(vals); start += im.vpl {
		end := min(start+im.vpl, len(vals))
		var vec uint64
		for _, v := range vals[start:end] {
			b := im.binOf(v)
			im.binCounts[b]++
			vec |= 1 << uint(b)
		}
		im.appendLine(vec)
	}
}

// appendLine adds one cacheline vector, extending the dictionary.
func (im *Imprints) appendLine(vec uint64) {
	im.lines++
	last := len(im.vectors) - 1
	if last >= 0 && im.vectors[last] == vec {
		e := len(im.counts) - 1
		if im.repeats[e] {
			im.counts[e]++
			return
		}
		// The previous vector was part of a non-repeat entry; carve it out
		// into a fresh repeat entry of length 2.
		im.counts[e]--
		if im.counts[e] == 0 {
			im.counts = im.counts[:e]
			im.repeats = im.repeats[:e]
		}
		im.counts = append(im.counts, 2)
		im.repeats = append(im.repeats, true)
		return
	}
	im.vectors = append(im.vectors, vec)
	e := len(im.counts) - 1
	if e >= 0 && !im.repeats[e] {
		im.counts[e]++
		return
	}
	im.counts = append(im.counts, 1)
	im.repeats = append(im.repeats, false)
}

// N reports the number of indexed values.
func (im *Imprints) N() int { return im.n }

// Lines reports the number of cache lines covered.
func (im *Imprints) Lines() int { return im.lines }

// Bits reports the configured number of bins.
func (im *Imprints) Bits() int { return im.bits }

// VectorCount reports the number of stored (compressed) imprint vectors.
func (im *Imprints) VectorCount() int { return len(im.vectors) }

// Bytes reports the index storage footprint: stored vectors at the bin
// width plus dictionary entries (count + repeat bit packed in 4 bytes), the
// boundary array, the bin histogram and the zone level (an OR vector and a
// 12-byte cursor per 64 lines).
func (im *Imprints) Bytes() int {
	vecBytes := len(im.vectors) * im.bits / 8
	dictBytes := len(im.counts) * 4
	boundBytes := len(im.bounds) * 8
	histBytes := len(im.binCounts) * 4
	zoneBytes := len(im.zoneOr)*8 + len(im.zoneCur)*12
	return vecBytes + dictBytes + boundBytes + histBytes + zoneBytes
}

// EstimateRows bounds from above (up to histogram resolution) the number of
// values in [lo, hi]: every matching value lies in a bin overlapping the
// interval, so the summed bin counts are a cardinality estimate that query
// operators use to size selection vectors before the scan.
func (im *Imprints) EstimateRows(lo, hi float64) int {
	if hi < lo || im.n == 0 || len(im.binCounts) == 0 {
		return 0
	}
	bLo, bHi := im.binOf(lo), im.binOf(hi)
	var est int
	for b := bLo; b <= bHi && b < len(im.binCounts); b++ {
		est += int(im.binCounts[b])
	}
	if est > im.n {
		est = im.n
	}
	return est
}

// queryMask returns the bin mask for interval [lo, hi].
func (im *Imprints) queryMask(lo, hi float64) uint64 {
	if hi < lo {
		return 0
	}
	bLo := im.binOf(lo)
	bHi := im.binOf(hi)
	var mask uint64
	for b := bLo; b <= bHi; b++ {
		mask |= 1 << uint(b)
	}
	return mask
}

// CandidateLines returns the indices of cache lines that may contain values
// in [lo, hi], in ascending order. Zones whose OR misses the query mask are
// skipped whole; within a zone a repeat entry is tested once regardless of
// run length.
func (im *Imprints) CandidateLines(lo, hi float64) []int {
	w := newZoneWalk(im.term(lo, hi))
	var out []int
	for z, hits, ok := w.next(); ok; z, hits, ok = w.next() {
		for ; hits != 0; hits &= hits - 1 {
			out = append(out, z*zoneLines+bits.TrailingZeros64(hits))
		}
	}
	return out
}

// CandidateRanges returns the candidate rows for [lo, hi] as merged,
// cacheline-aligned half-open row ranges (the final range is clipped to the
// column length). This is the form the filter step hands to refinement.
func (im *Imprints) CandidateRanges(lo, hi float64) []colstore.Range {
	return im.CandidateRangesInto(lo, hi, nil)
}

// CandidateRangesInto is CandidateRanges appending into a caller-provided
// buffer, so the repeated-query path can draw the candidate list from a
// pool instead of re-allocating it (~tens-to-hundreds of KB per query on
// fragmented candidate sets). out's existing elements are preserved and
// assumed to end before the first candidate row. It is the one-term case
// of ConjunctiveRangesInto.
func (im *Imprints) CandidateRangesInto(lo, hi float64, out []colstore.Range) []colstore.Range {
	w := newZoneWalk(im.term(lo, hi))
	return w.appendRanges(out, math.MaxInt)
}

// CandidateFraction returns the fraction of cache lines flagged for
// [lo, hi]; a quality measure used by the imprint-anatomy experiment (E9).
func (im *Imprints) CandidateFraction(lo, hi float64) float64 {
	if im.lines == 0 {
		return 0
	}
	w := newZoneWalk(im.term(lo, hi))
	flagged := 0
	for _, hits, ok := w.next(); ok; _, hits, ok = w.next() {
		flagged += bits.OnesCount64(hits)
	}
	return float64(flagged) / float64(im.lines)
}

// CompressionRatio reports lines / stored vectors: how many cache lines each
// stored vector covers on average (1.0 means no compression).
func (im *Imprints) CompressionRatio() float64 {
	if len(im.vectors) == 0 {
		return 0
	}
	return float64(im.lines) / float64(len(im.vectors))
}

// OverheadPercent reports the index size as a percentage of the indexed
// column payload (assuming 8-byte elements, the width of coordinate
// columns). The paper reports 5–12% for real data (§3.2).
func (im *Imprints) OverheadPercent() float64 {
	if im.n == 0 {
		return 0
	}
	return 100 * float64(im.Bytes()) / float64(im.n*8)
}

// Stats summarises the index for reporting.
type Stats struct {
	N, Lines, Vectors, DictEntries int
	Bits, ValuesPerLine            int
	Bytes                          int
	CompressionRatio               float64
	OverheadPercent                float64
}

// Stats returns a snapshot of index statistics.
func (im *Imprints) Stats() Stats {
	return Stats{
		N: im.n, Lines: im.lines, Vectors: len(im.vectors), DictEntries: len(im.counts),
		Bits: im.bits, ValuesPerLine: im.vpl,
		Bytes:            im.Bytes(),
		CompressionRatio: im.CompressionRatio(),
		OverheadPercent:  im.OverheadPercent(),
	}
}
