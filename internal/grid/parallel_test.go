package grid

import (
	"math/rand"
	"sync"
	"testing"

	"gisnav/internal/colstore"
	"gisnav/internal/geom"
)

func TestSplitRanges(t *testing.T) {
	cand := []colstore.Range{{Start: 0, End: 100}, {Start: 200, End: 250}, {Start: 300, End: 450}}
	_, _, parts := SplitRangesInto(cand, 3, nil, nil, nil)
	if len(parts) < 2 {
		t.Fatalf("expected multiple partitions, got %d", len(parts))
	}
	// Partitions cover exactly the input rows, in order.
	var flat []colstore.Range
	for _, p := range parts {
		flat = append(flat, p...)
	}
	if colstore.RangesLen(flat) != colstore.RangesLen(cand) {
		t.Fatalf("split covers %d rows, want %d", colstore.RangesLen(flat), colstore.RangesLen(cand))
	}
	prev := -1
	for _, r := range flat {
		if r.Start < prev {
			t.Fatal("split broke ordering")
		}
		prev = r.End
	}
	// Degenerate inputs: nothing to split is no partition at all; n <= 1
	// hands cand on as the sole partition, without copying.
	if _, _, got := SplitRangesInto(nil, 4, nil, nil, nil); len(got) != 0 {
		t.Fatalf("empty split = %v", got)
	}
	for _, n := range []int{1, 0} {
		_, _, got := SplitRangesInto(cand, n, nil, nil, nil)
		if len(got) != 1 || len(got[0]) != len(cand) || &got[0][0] != &cand[0] {
			t.Fatalf("n=%d: want cand itself as one partition, got %v", n, got)
		}
	}
}

func TestRefineParallelMatchesSerial(t *testing.T) {
	xs, ys := randomCloud(20_000, geom.NewEnvelope(0, 0, 1000, 1000), 31)
	poly := geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
		{X: 100, Y: 100}, {X: 600, Y: 150}, {X: 800, Y: 700}, {X: 400, Y: 900}, {X: 50, Y: 500},
	}}}
	checkPartitioned(t, "polygon", xs, ys, colstore.FullRange(len(xs)), GeometryRegion{G: poly})
	spike := geom.NewEnvelope(700, 700, 950, 950).ToPolygon()
	checkPartitioned(t, "multi-region", xs, ys, colstore.FullRange(len(xs)), NewMultiRegion([]geom.Geometry{poly, spike}))
}

func TestRefineParallelBufferRegion(t *testing.T) {
	xs, ys := randomCloud(15_000, geom.NewEnvelope(0, 0, 1000, 1000), 32)
	road := geom.LineString{Points: []geom.Point{
		{X: 0, Y: 500}, {X: 400, Y: 480}, {X: 700, Y: 600}, {X: 1000, Y: 550},
	}}
	checkPartitioned(t, "buffer", xs, ys, colstore.FullRange(len(xs)), BufferRegion{G: road, D: 50})
	multi := NewMultiBuffer([]geom.Geometry{road, geom.Point{X: 200, Y: 800}}, 40)
	checkPartitioned(t, "multi-buffer", xs, ys, colstore.FullRange(len(xs)), multi)
}

func TestRefineParallelSparseCandidates(t *testing.T) {
	xs, ys := randomCloud(10_000, geom.NewEnvelope(0, 0, 100, 100), 33)
	region := GeometryRegion{G: geom.NewEnvelope(20, 20, 80, 80).ToPolygon()}
	rng := rand.New(rand.NewSource(33))
	var fragmented []colstore.Range
	for at := rng.Intn(50); at < len(xs); at += 1 + rng.Intn(700) {
		end := min(at+1+rng.Intn(400), len(xs))
		fragmented = append(fragmented, colstore.Range{Start: at, End: end})
		at = end
	}
	for name, cand := range map[string][]colstore.Range{
		"fragmented": fragmented,
		"single":     {{Start: 3000, End: 7000}},
		"one-row":    {{Start: 17, End: 18}},
		"empty":      nil,
	} {
		checkPartitioned(t, name, xs, ys, cand, region)
	}
}

// refinePartitioned is the engine's parallel refinement in miniature: split
// cand into n order-preserving partitions, refine each on its own goroutine
// against the shared columns, and concatenate the partitions' rows in
// partition order.
func refinePartitioned(xs, ys []float64, cand []colstore.Range, region Region, n int) ([]int, Stats) {
	_, _, parts := SplitRangesInto(cand, n, nil, nil, nil)
	rows := make([][]int, len(parts))
	stats := make([]Stats, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows[i], stats[i] = RefineInto(xs, ys, p, region, Options{}, nil)
		}()
	}
	wg.Wait()
	var out []int
	var st Stats
	for i := range parts {
		out = append(out, rows[i]...)
		st.CandidateRows += stats[i].CandidateRows
		st.Matches += stats[i].Matches
	}
	return out, st
}

// checkPartitioned holds refinePartitioned at n = 1..8 to RefineInto over
// the whole candidate list and to the naive per-point reference.
func checkPartitioned(t *testing.T, name string, xs, ys []float64, cand []colstore.Range, region Region) {
	t.Helper()
	want := naiveMatches(xs, ys, cand, region)
	serial, _ := RefineInto(xs, ys, cand, region, Options{}, nil)
	if !equalInts(serial, want) {
		t.Fatalf("%s: RefineInto %d rows, naive %d", name, len(serial), len(want))
	}
	for n := 1; n <= 8; n++ {
		got, st := refinePartitioned(xs, ys, cand, region, n)
		if !equalInts(got, want) {
			t.Fatalf("%s n=%d: partitioned %d rows, serial %d", name, n, len(got), len(want))
		}
		if st.Matches != len(want) || st.CandidateRows != colstore.RangesLen(cand) {
			t.Fatalf("%s n=%d: stats %+v, want %d matches of %d candidates", name, n, st, len(want), colstore.RangesLen(cand))
		}
	}
}

func TestRefineAutoAgreesWithSerial(t *testing.T) {
	xs, ys := randomCloud(1000, geom.NewEnvelope(0, 0, 100, 100), 34)
	region := GeometryRegion{G: geom.NewEnvelope(10, 10, 90, 90).ToPolygon()}
	a, _ := RefineAutoInto(xs, ys, colstore.FullRange(1000), region, Options{}, nil)
	b, _ := RefineInto(xs, ys, colstore.FullRange(1000), region, Options{}, nil)
	if len(a) == 0 || !equalInts(a, b) {
		t.Fatalf("RefineAutoInto %d rows, RefineInto %d", len(a), len(b))
	}
}
