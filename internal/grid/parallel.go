package grid

import (
	"gisnav/internal/colstore"
)

// SplitRangesInto cuts a sorted range list into at most n partitions of
// roughly equal row counts, preserving order (partition i's rows all
// precede partition i+1's), reusing the caller's backing storage: one
// shared range array, the partition end offsets, and the partition
// headers. It is the single partitioning definition — every morsel driver
// in the engine splits through it — and it allocates nothing once the
// caller's slices have grown to the workload's usual partition count.
//
// n <= 1 returns cand itself as the sole partition, without copying, so a
// degree-1 pass pays nothing for the split. Otherwise the partitions alias
// partBuf. Either way treat them as read-only and do not recycle cand
// before they are consumed.
func SplitRangesInto(cand []colstore.Range, n int, partBuf []colstore.Range, cuts []int, parts [][]colstore.Range) ([]colstore.Range, []int, [][]colstore.Range) {
	if n <= 1 {
		return partBuf, cuts, append(parts[:0], cand)
	}
	total := colstore.RangesLen(cand)
	target := (total + n - 1) / n
	partBuf = partBuf[:0]
	cuts = cuts[:0]
	currentRows := 0
	for _, r := range cand {
		for r.Len() > 0 {
			room := target - currentRows
			if room <= 0 {
				cuts = append(cuts, len(partBuf))
				currentRows = 0
				room = target
			}
			take := r.Len()
			if take > room {
				take = room
			}
			partBuf = append(partBuf, colstore.Range{Start: r.Start, End: r.Start + take})
			currentRows += take
			r.Start += take
		}
	}
	if len(partBuf) > 0 && (len(cuts) == 0 || cuts[len(cuts)-1] != len(partBuf)) {
		cuts = append(cuts, len(partBuf))
	}
	parts = parts[:0]
	prev := 0
	for _, cut := range cuts {
		parts = append(parts, partBuf[prev:cut:cut])
		prev = cut
	}
	return partBuf, cuts, parts
}

// RefineAutoInto is RefineInto. It exists only because the navbench
// harness (benchmark/trace.go) replays the engine's refinement step by this
// name; it goes with that replay (ROADMAP item 2).
func RefineAutoInto(xs, ys []float64, cand []colstore.Range, region Region, opts Options, matches []int) ([]int, Stats) {
	return RefineInto(xs, ys, cand, region, opts, matches)
}
