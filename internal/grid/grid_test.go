package grid

import (
	"math/rand"
	"testing"

	"gisnav/internal/colstore"
	"gisnav/internal/geom"
)

// randomCloud builds n points uniformly over the envelope.
func randomCloud(n int, env geom.Envelope, seed int64) (xs, ys []float64) {
	rng := rand.New(rand.NewSource(seed))
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := range xs {
		xs[i] = env.MinX + rng.Float64()*env.Width()
		ys[i] = env.MinY + rng.Float64()*env.Height()
	}
	return xs, ys
}

// naiveMatches is the reference evaluator.
func naiveMatches(xs, ys []float64, cand []colstore.Range, region Region) []int {
	var out []int
	for _, r := range cand {
		for row := r.Start; row < r.End; row++ {
			if region.Contains(xs[row], ys[row]) {
				out = append(out, row)
			}
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRefineMatchesNaiveOnPolygon(t *testing.T) {
	xs, ys := randomCloud(20_000, geom.NewEnvelope(0, 0, 1000, 1000), 1)
	poly := geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
		{X: 100, Y: 100}, {X: 600, Y: 150}, {X: 800, Y: 700}, {X: 400, Y: 900}, {X: 50, Y: 500},
	}}}
	region := GeometryRegion{G: poly}
	cand := colstore.FullRange(len(xs))
	got, st := RefineInto(xs, ys, cand, region, Options{}, nil)
	want := naiveMatches(xs, ys, cand, region)
	if !equalInts(got, want) {
		t.Fatalf("refine found %d rows, naive %d", len(got), len(want))
	}
	if st.Matches != len(want) || st.CandidateRows != len(xs) {
		t.Fatalf("stats = %+v", st)
	}
	// The grid must have saved exact tests: bulk accepts should dominate for
	// a large region.
	if st.BulkAccepted == 0 {
		t.Fatal("no cells classified inside — grid ineffective")
	}
	if st.ExactTests >= len(xs) {
		t.Fatal("grid did not prune exact tests")
	}
}

func TestRefineMatchesNaiveOnBuffer(t *testing.T) {
	xs, ys := randomCloud(10_000, geom.NewEnvelope(0, 0, 1000, 1000), 2)
	road := geom.LineString{Points: []geom.Point{
		{X: 0, Y: 500}, {X: 400, Y: 480}, {X: 700, Y: 600}, {X: 1000, Y: 550},
	}}
	region := BufferRegion{G: road, D: 50}
	cand := colstore.FullRange(len(xs))
	got, st := RefineInto(xs, ys, cand, region, Options{}, nil)
	want := naiveMatches(xs, ys, cand, region)
	if !equalInts(got, want) {
		t.Fatalf("refine found %d rows, naive %d", len(got), len(want))
	}
	if st.Matches == 0 {
		t.Fatal("buffer query should match some points")
	}
}

func TestRefineWithPartialCandidates(t *testing.T) {
	xs, ys := randomCloud(5000, geom.NewEnvelope(0, 0, 100, 100), 3)
	sq := geom.NewEnvelope(20, 20, 80, 80).ToPolygon()
	region := GeometryRegion{G: sq}
	cand := []colstore.Range{{Start: 0, End: 1000}, {Start: 3000, End: 3500}}
	got, _ := RefineInto(xs, ys, cand, region, Options{}, nil)
	want := naiveMatches(xs, ys, cand, region)
	if !equalInts(got, want) {
		t.Fatalf("partial candidates: %d vs %d", len(got), len(want))
	}
	// Rows outside the candidate set must not appear.
	for _, row := range got {
		if !colstore.RangesContain(cand, row) {
			t.Fatalf("row %d outside candidate set", row)
		}
	}
}

func TestRefineEmptyInputs(t *testing.T) {
	region := GeometryRegion{G: geom.NewEnvelope(0, 0, 1, 1).ToPolygon()}
	got, st := RefineInto(nil, nil, nil, region, Options{}, nil)
	if got != nil || st.Matches != 0 {
		t.Fatal("empty candidates should match nothing")
	}
	// Empty region envelope.
	got, _ = RefineInto([]float64{1}, []float64{1}, colstore.FullRange(1), GeometryRegion{G: geom.Polygon{}}, Options{}, nil)
	if got != nil {
		t.Fatal("empty region should match nothing")
	}
}

func TestRefineExhaustiveMatchesRefine(t *testing.T) {
	xs, ys := randomCloud(8000, geom.NewEnvelope(0, 0, 500, 500), 4)
	poly := geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
		{X: 50, Y: 50}, {X: 450, Y: 80}, {X: 300, Y: 450},
	}}}
	region := GeometryRegion{G: poly}
	cand := colstore.FullRange(len(xs))
	gridRows, gst := RefineInto(xs, ys, cand, region, Options{}, nil)
	exRows, est := RefineExhaustiveInto(xs, ys, cand, region, nil)
	if !equalInts(gridRows, exRows) {
		t.Fatalf("grid %d rows vs exhaustive %d rows", len(gridRows), len(exRows))
	}
	if est.ExactTests <= gst.ExactTests {
		t.Fatalf("exhaustive should test more points (%d vs %d)", est.ExactTests, gst.ExactTests)
	}
}

func TestRefineDegenerateRegionExtent(t *testing.T) {
	// A vertical line region has zero width; the grid must still work.
	xs := []float64{5, 5, 6}
	ys := []float64{1, 2, 3}
	line := geom.LineString{Points: []geom.Point{{X: 5, Y: 0}, {X: 5, Y: 10}}}
	got, _ := RefineInto(xs, ys, colstore.FullRange(3), GeometryRegion{G: line}, Options{}, nil)
	want := []int{0, 1}
	if !equalInts(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestBufferRegionClassify(t *testing.T) {
	road := geom.LineString{Points: []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}}
	r := BufferRegion{G: road, D: 10}
	// Tiny box hugging the line: inside.
	if got := r.Classify(geom.NewEnvelope(50, -1, 51, 1)); got != geom.BoxInside {
		t.Fatalf("hugging box = %v", got)
	}
	// Distant box: outside.
	if got := r.Classify(geom.NewEnvelope(50, 100, 60, 110)); got != geom.BoxOutside {
		t.Fatalf("far box = %v", got)
	}
	// Box straddling the d-contour: boundary.
	if got := r.Classify(geom.NewEnvelope(50, 5, 60, 15)); got != geom.BoxBoundary {
		t.Fatalf("straddling box = %v", got)
	}
	if r.Classify(geom.EmptyEnvelope()) != geom.BoxOutside {
		t.Fatal("empty box should be outside")
	}
	env := r.Envelope()
	if env.MinY != -10 || env.MaxY != 10 {
		t.Fatalf("buffered envelope = %v", env)
	}
}

func TestBufferRegionClassifyConservative(t *testing.T) {
	// Property: whatever Classify says must agree with exhaustive point
	// checks inside the box.
	rng := rand.New(rand.NewSource(9))
	g := geom.LineString{Points: []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 30}, {X: 100, Y: -20}}}
	r := BufferRegion{G: g, D: 15}
	for iter := 0; iter < 400; iter++ {
		x0 := rng.Float64()*160 - 30
		y0 := rng.Float64()*120 - 60
		box := geom.NewEnvelope(x0, y0, x0+rng.Float64()*20, y0+rng.Float64()*20)
		rel := r.Classify(box)
		for k := 0; k < 15; k++ {
			px := box.MinX + rng.Float64()*box.Width()
			py := box.MinY + rng.Float64()*box.Height()
			in := r.Contains(px, py)
			if rel == geom.BoxInside && !in {
				t.Fatalf("box %v inside but point (%v,%v) out", box, px, py)
			}
			if rel == geom.BoxOutside && in {
				t.Fatalf("box %v outside but point (%v,%v) in", box, px, py)
			}
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.TargetPointsPerCell != 64 || o.MaxCellsPerSide != 1024 {
		t.Fatalf("defaults = %+v", o)
	}
	nx, ny := gridDims(100_000, geom.NewEnvelope(0, 0, 100, 10), Options{}.withDefaults())
	if nx <= ny {
		t.Fatalf("wide extent should get more x cells: %dx%d", nx, ny)
	}
	nx, ny = gridDims(1, geom.NewEnvelope(0, 0, 1, 1), Options{}.withDefaults())
	if nx != 1 || ny != 1 {
		t.Fatalf("tiny input should get 1x1 grid, got %dx%d", nx, ny)
	}
	nx, _ = gridDims(1<<30, geom.NewEnvelope(0, 0, 1, 1), Options{MaxCellsPerSide: 8}.withDefaults())
	if nx > 8 {
		t.Fatalf("cap not applied: %d", nx)
	}
}

func TestStatsCellAccounting(t *testing.T) {
	xs, ys := randomCloud(4096, geom.NewEnvelope(0, 0, 100, 100), 10)
	sq := geom.NewEnvelope(10, 10, 90, 90).ToPolygon()
	_, st := RefineInto(xs, ys, colstore.FullRange(len(xs)), GeometryRegion{G: sq}, Options{}, nil)
	if st.CellsTouched != st.InsideCells+st.BoundaryCells+st.OutsideCells {
		t.Fatalf("cell accounting broken: %+v", st)
	}
	if st.GridCellsX < 1 || st.GridCellsY < 1 {
		t.Fatalf("grid dims: %+v", st)
	}
	if st.BulkAccepted+st.ExactTests < st.Matches {
		t.Fatalf("matches exceed examined: %+v", st)
	}
}
