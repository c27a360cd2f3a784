package imprints

import (
	"fmt"
	"math"
	"math/bits"

	"gisnav/internal/colstore"
)

// zoneLines is the number of cache lines one zone summarises: one bit of a
// 64-bit hit word per line.
const zoneLines = 64

// zoneCursor is the dictionary position of a zone's first line: the entry
// holding it, how many of that entry's lines precede it, and the index of
// the line's vector. A walk resumes from it at any zone without replaying
// the dictionary before it.
type zoneCursor struct {
	entry, off, vec uint32
}

// buildZones derives zones z0.. from the finished dictionary in one pass
// over its tail, starting at c, the cursor of zone z0's first line; zones
// before z0 are kept (appendLine rewrites the dictionary's tail as runs
// form, so cursors cannot be taken while it grows). The zone arrays are
// fresh: an Extend never writes into the arrays of the imprints it copies.
func (im *Imprints) buildZones(z0 int, c zoneCursor) {
	zones := (im.lines + zoneLines - 1) / zoneLines
	zoneOr, zoneCur := make([]uint64, zones), make([]zoneCursor, zones)
	copy(zoneOr, im.zoneOr[:z0])
	copy(zoneCur, im.zoneCur[:z0])
	im.zoneOr, im.zoneCur = zoneOr, zoneCur
	e, off, vec := int(c.entry), int(c.off), int(c.vec)
	for z := z0; z < zones; z++ {
		im.zoneCur[z] = zoneCursor{uint32(e), uint32(off), uint32(vec)}
		var or uint64
		for left := min(zoneLines, im.lines-z*zoneLines); left > 0; {
			take := min(int(im.counts[e])-off, left)
			if im.repeats[e] {
				or |= im.vectors[vec]
			} else {
				for _, v := range im.vectors[vec : vec+take] {
					or |= v
				}
				vec += take
			}
			left -= take
			if off += take; off == int(im.counts[e]) {
				if im.repeats[e] {
					vec++
				}
				e, off = e+1, 0
			}
		}
		im.zoneOr[z] = or
	}
}

// zoneHits returns zone z's hit word for mask: bit i is set when the vector
// of line 64z+i intersects mask. A repeat entry sets its whole run of bits
// with one test; bits past the last line of a partial final zone stay 0.
func (im *Imprints) zoneHits(z int, mask uint64) uint64 {
	c := im.zoneCur[z]
	e, off, vec := int(c.entry), int(c.off), int(c.vec)
	n := min(zoneLines, im.lines-z*zoneLines)
	var hits uint64
	for bit := 0; bit < n; e, off = e+1, 0 {
		take := min(int(im.counts[e])-off, n-bit)
		if im.repeats[e] {
			if im.vectors[vec]&mask != 0 {
				hits |= ^uint64(0) >> uint(zoneLines-take) << uint(bit)
			}
			vec++
		} else {
			for i, v := range im.vectors[vec : vec+take] {
				v &= mask
				hits |= (v | -v) >> 63 << uint(bit+i) // 1 iff v != 0, no branch
			}
			vec += take
		}
		bit += take
	}
	return hits
}

// walkTerm is one conjunct of a walk: an imprint and the bin mask of the
// interval asked of its column.
type walkTerm struct {
	im   *Imprints
	mask uint64
}

func (im *Imprints) term(lo, hi float64) walkTerm {
	return walkTerm{im: im, mask: im.queryMask(lo, hi)}
}

// maxTerms bounds a conjunctive walk. The terms live inline in the walk, so
// a Cursor holds no pointer into itself and stays on its caller's stack.
const maxTerms = 4

// zoneWalk is the single dictionary walk every candidate query runs: it
// yields, in ascending zone order, the non-zero hit words of the lines
// flagged by every term. All terms index columns of one length at one
// ValuesPerLine, so line i and zone z mean the same rows in each. It is
// resumable: a walk stopped between two zones continues from the next.
type zoneWalk struct {
	terms  [maxTerms]walkTerm
	nterms int
	z      int // next zone to test
	zones  int
	hit    int // zones that passed every term's OR test so far
}

// newZoneWalk starts a walk over at most maxTerms terms, which the caller
// orders cheapest first. A term with an empty mask (inverted or unmatched
// interval) makes the conjunction empty: the walk starts exhausted.
func newZoneWalk(terms ...walkTerm) zoneWalk {
	w := zoneWalk{zones: len(terms[0].im.zoneOr)}
	w.nterms = copy(w.terms[:], terms)
	for _, t := range terms {
		if t.mask == 0 {
			w.z = w.zones
		}
	}
	return w
}

// next returns the next zone with at least one line flagged by every term,
// and its hit word. A zone is first rejected on the terms' OR vectors — 64
// lines ruled out with one AND per term — and only a zone that passes them
// all has its lines read, term by term, stopping as soon as the running AND
// empties. A full walk is a couple of thousand zone tests per million rows,
// far below a cancellation block, so it polls nothing.
func (w *zoneWalk) next() (z int, hits uint64, ok bool) {
	terms := w.terms[:w.nterms]
zones:
	for w.z < w.zones {
		z = w.z
		w.z++
		for _, t := range terms {
			if t.im.zoneOr[z]&t.mask == 0 {
				continue zones
			}
		}
		w.hit++
		hits = ^uint64(0)
		for _, t := range terms {
			if hits &= t.im.zoneHits(z, t.mask); hits == 0 {
				continue zones
			}
		}
		return z, hits, true
	}
	return 0, 0, false
}

// appendRanges walks on until at least budget candidate rows have been
// appended to out, or the walk ends, whichever comes first; it stops
// between zones, so a batch may overshoot budget by up to a zone's rows.
// Each run of set bits in a hit word is one cacheline-aligned row range, a
// run reaching a zone's last line merges with one starting the next zone,
// and the column's final partial line is clipped to its length.
func (w *zoneWalk) appendRanges(out []colstore.Range, budget int) []colstore.Range {
	vpl, n := w.terms[0].im.vpl, w.terms[0].im.n
	for emitted := 0; emitted < budget; {
		z, hits, ok := w.next()
		if !ok {
			break
		}
		for line := z * zoneLines; hits != 0; {
			skip := bits.TrailingZeros64(hits)
			run := bits.TrailingZeros64(^(hits >> uint(skip)))
			line += skip
			start, end := line*vpl, min((line+run)*vpl, n)
			if k := len(out); k > 0 && out[k-1].End == start {
				out[k-1].End = end
			} else {
				out = append(out, colstore.Range{Start: start, End: end})
			}
			emitted += end - start
			line += run
			hits >>= uint(skip + run) // a shift by 64 leaves 0
		}
	}
	return out
}

// Term is one conjunct of a conjunctive candidate query: the column Im
// indexes must hold a value in [Lo, Hi].
type Term struct {
	Im     *Imprints
	Lo, Hi float64
}

// ZoneStats reports how much of the index a walk read: Hit of Total zones
// passed every term's OR test and had their lines examined; the rest were
// skipped whole.
type ZoneStats struct {
	Hit, Total int
}

// Cursor is a resumable conjunctive candidate walk: each AppendRanges call
// continues where the previous one stopped, so a caller that needs only the
// first rows of a selection opens only the zones that hold them. A Cursor
// is a plain value; it lives on its caller's stack.
type Cursor struct {
	walk zoneWalk
}

// NewCursor starts a walk over the rows whose cache line is flagged by
// every term. Terms are evaluated most-compressed dictionary first, so a
// column that clusters well (few entries, cheap hit words) prunes zones
// before a fragmented one is read. The terms' imprints must index columns
// of one length at one ValuesPerLine, and there must be between one and
// four terms; otherwise NewCursor returns an error.
func NewCursor(terms []Term) (Cursor, error) {
	if len(terms) == 0 || len(terms) > maxTerms {
		return Cursor{}, fmt.Errorf("imprints: conjunctive query needs 1 to %d terms, got %d", maxTerms, len(terms))
	}
	var ordered [maxTerms]walkTerm
	for i, t := range terms {
		if first := terms[0].Im; t.Im.n != first.n || t.Im.vpl != first.vpl {
			return Cursor{}, fmt.Errorf(
				"imprints: conjunctive terms disagree on shape: %d values at %d per line vs %d at %d",
				t.Im.n, t.Im.vpl, first.n, first.vpl)
		}
		// Stable insertion by dictionary size.
		for ; i > 0 && len(ordered[i-1].im.counts) > len(t.Im.counts); i-- {
			ordered[i] = ordered[i-1]
		}
		ordered[i] = t.Im.term(t.Lo, t.Hi)
	}
	return Cursor{walk: newZoneWalk(ordered[:len(terms)]...)}, nil
}

// AppendRanges appends the walk's next merged, cacheline-aligned candidate
// row ranges to out until at least budget rows have been appended or the
// walk ends. A batch ends between zones, so it may overshoot budget by up
// to one zone's rows, and a range that spans the boundary between two
// batches arrives split in two. out's existing elements are preserved and
// assumed to end before the batch's first candidate row.
func (c *Cursor) AppendRanges(out []colstore.Range, budget int) []colstore.Range {
	return c.walk.appendRanges(out, budget)
}

// Done reports whether the walk has passed its last zone.
func (c *Cursor) Done() bool { return c.walk.z >= c.walk.zones }

// Stats reports the zones the walk has opened so far, of the index's total.
func (c *Cursor) Stats() ZoneStats { return ZoneStats{Hit: c.walk.hit, Total: c.walk.zones} }

// ConjunctiveRangesInto appends to out the rows whose cache line is flagged
// by every term — exactly colstore.IntersectRangesInto over the terms'
// CandidateRangesInto lists, without materialising them: one unbounded
// Cursor batch, one list. Terms are as NewCursor takes them; on an error
// out is returned unchanged. out's existing elements are preserved and
// assumed to end before the first candidate row.
func ConjunctiveRangesInto(terms []Term, out []colstore.Range) ([]colstore.Range, ZoneStats, error) {
	c, err := NewCursor(terms)
	if err != nil {
		return out, ZoneStats{}, err
	}
	out = c.AppendRanges(out, math.MaxInt)
	return out, c.Stats(), nil
}
