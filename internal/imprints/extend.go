package imprints

import "fmt"

// resampleGrowth is the amortised rebuild rule for appends: Extend keeps
// the bins a full build sampled, and a column that has grown past
// resampleGrowth times the rows that build sampled is due a fresh sample
// (Outgrown). Doubling keeps the total rebuild work linear in the rows
// appended.
const resampleGrowth = 2

// Outgrown reports whether a column grown to n rows has outgrown the bins:
// more rows were appended since the last full build than that build
// sampled. The owner then rebuilds with Build instead of calling Extend.
func (im *Imprints) Outgrown(n int) bool { return n > resampleGrowth*im.built }

// Extend returns imprints over vals, whose first old.N() values must be
// the ones old indexes (an append-only column), with old's bin bounds. The
// dictionary, the histogram and the zone level continue from old's: only
// old's last partial cache line and its last zone are recomputed, so the
// cost is O(appended rows) plus one copy of the index. The result is
// structurally identical to a build over vals with old's bounds. old is
// not modified, so a query that holds it keeps a valid index over the rows
// it covers.
func Extend(old *Imprints, vals []float64) *Imprints {
	if len(vals) < old.n {
		panic(fmt.Sprintf("imprints: extending %d indexed values with a column of %d", old.n, len(vals)))
	}
	if len(vals) == old.n {
		return old
	}
	full := old.n / old.vpl // complete lines; a partial last line is recomputed
	grow := (len(vals)+old.vpl-1)/old.vpl - full
	im := &Imprints{
		bounds:    old.bounds,
		bits:      old.bits,
		vpl:       old.vpl,
		n:         len(vals),
		lines:     old.lines,
		vectors:   append(make([]uint64, 0, len(old.vectors)+grow), old.vectors...),
		counts:    append(make([]uint32, 0, len(old.counts)+grow), old.counts...),
		repeats:   append(make([]bool, 0, len(old.repeats)+grow), old.repeats...),
		zoneOr:    old.zoneOr,
		zoneCur:   old.zoneCur,
		binCounts: make([]uint32, old.bits),
		built:     old.built,
	}
	copy(im.binCounts, old.binCounts)
	if full < old.lines {
		for _, v := range vals[full*old.vpl : old.n] {
			im.binCounts[im.binOf(v)]--
		}
		im.popLine()
	}
	// Zone z0's cursor is final once the line after its first one is in the
	// dictionary (only that line's arrival can carve its first line into a
	// repeat run), so the walk restarts from the zone holding the
	// second-to-last remaining line.
	z0, c := 0, zoneCursor{}
	if im.lines >= 2 {
		z0 = (im.lines - 2) / zoneLines
		c = old.zoneCur[z0]
	}
	im.appendLines(vals, full*im.vpl)
	im.buildZones(z0, c)
	return im
}

// popLine removes the dictionary's last line, restoring the state
// appendLine left before that line arrived.
func (im *Imprints) popLine() {
	im.lines--
	e := len(im.counts) - 1
	switch {
	case !im.repeats[e]:
		// The line brought its own vector into a non-repeat run.
		im.vectors = im.vectors[:len(im.vectors)-1]
		if im.counts[e]--; im.counts[e] == 0 {
			im.counts, im.repeats = im.counts[:e], im.repeats[:e]
		}
	case im.counts[e] > 2:
		im.counts[e]--
	default:
		// A run of two was carved out of a non-repeat run (or started one)
		// when its second line arrived; its first line and the shared
		// vector go back to a non-repeat run.
		im.counts, im.repeats = im.counts[:e], im.repeats[:e]
		if e > 0 && !im.repeats[e-1] {
			im.counts[e-1]++
		} else {
			im.counts = append(im.counts, 1)
			im.repeats = append(im.repeats, false)
		}
	}
}
