package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"gisnav/internal/colstore"
	"gisnav/internal/geom"
	"gisnav/internal/grid"
	"gisnav/internal/las"
	"gisnav/internal/synth"
)

// buildCloud generates a deterministic test cloud and loads it row-wise.
func buildCloud(t *testing.T, density float64) (*PointCloud, []las.Point) {
	t.Helper()
	region := geom.NewEnvelope(0, 0, 1000, 1000)
	terrain := synth.NewTerrain(51, region)
	pts := synth.GenerateTile(terrain, synth.TileSpec{Env: region, Density: density, Seed: 3, SourceID: 42})
	pc := NewPointCloud()
	pc.AppendLAS(pts)
	return pc, pts
}

// boxRegion is the region of an axis-aligned envelope.
func boxRegion(env geom.Envelope) grid.Region { return grid.GeometryRegion{G: env.ToPolygon()} }

// scanRegion is the spatial reference: every row tested with the exact
// predicate — no index, no grid.
func scanRegion(pc *PointCloud, region grid.Region) []int {
	rows, _ := grid.RefineExhaustiveInto(pc.X(), pc.Y(), colstore.FullRange(pc.Len()), region, []int{})
	return rows
}

// selectTraced runs the selector with an operator trace.
func selectTraced(pc *PointCloud, region grid.Region) ([]int, *Explain) {
	ex := &Explain{}
	return pc.SelectRegionRowsRun(nil, region, -1, ex), ex
}

func TestSchemaShape(t *testing.T) {
	s := PointCloudSchema()
	if len(s.Fields) != 26 {
		t.Fatalf("schema has %d fields, want 26 (x,y,z + 23 properties)", len(s.Fields))
	}
	seen := map[string]bool{}
	for _, f := range s.Fields {
		if seen[f.Name] {
			t.Fatalf("duplicate field %q", f.Name)
		}
		seen[f.Name] = true
	}
	if s.FieldIndex(ColX) != 0 || s.FieldIndex(ColY) != 1 || s.FieldIndex(ColZ) != 2 {
		t.Fatal("coordinates must lead the schema")
	}
}

func TestAppendAndColumns(t *testing.T) {
	pc, pts := buildCloud(t, 0.02)
	if pc.Len() != len(pts) {
		t.Fatalf("len = %d, want %d", pc.Len(), len(pts))
	}
	if pc.Column("nope") != nil {
		t.Fatal("unknown column should be nil")
	}
	cls := pc.Column(ColClassification)
	if cls.Len() != len(pts) {
		t.Fatal("classification column length mismatch")
	}
	for i := 0; i < 50; i++ {
		if cls.Value(i) != float64(pts[i].Classification) {
			t.Fatalf("row %d classification mismatch", i)
		}
		if pc.X()[i] != pts[i].X || pc.Y()[i] != pts[i].Y || pc.Z()[i] != pts[i].Z {
			t.Fatalf("row %d coordinates mismatch", i)
		}
	}
	ext := pc.Extent()
	if !ext.ContainsPoint(pts[0].X, pts[0].Y) {
		t.Fatal("extent must cover points")
	}
	if pc.Bytes() <= 0 {
		t.Fatal("payload bytes should be positive")
	}
}

func TestImprintsLazyBuild(t *testing.T) {
	pc, _ := buildCloud(t, 0.02)
	if pc.HasImprints() {
		t.Fatal("imprints must not exist before first query")
	}
	_, ex := selectTraced(pc, boxRegion(geom.NewEnvelope(100, 100, 200, 200)))
	if !pc.HasImprints() {
		t.Fatal("first query must build imprints")
	}
	// The explain trace of the first query includes the build step.
	foundBuild := false
	for _, s := range ex.Steps {
		if s.Op == "imprints.build" {
			foundBuild = true
		}
	}
	if !foundBuild {
		t.Fatal("explain should record the index build")
	}
	// Second query must not rebuild.
	_, ex2 := selectTraced(pc, boxRegion(geom.NewEnvelope(100, 100, 200, 200)))
	for _, s := range ex2.Steps {
		if s.Op == "imprints.build" {
			t.Fatal("second query must reuse imprints")
		}
	}
	// Appends extend the imprints over the new rows; a rewrite drops them.
	pc.AppendLAS([]las.Point{{X: 1, Y: 1, Z: 0}})
	if !pc.HasImprints() {
		t.Fatal("append must extend the imprints, not drop them")
	}
	rows := pc.SelectRegionRows(boxRegion(geom.NewEnvelope(0.5, 0.5, 1.5, 1.5)))
	if len(rows) == 0 || rows[len(rows)-1] != pc.Len()-1 {
		t.Fatalf("extended imprints miss the appended row: %v", rows)
	}
	pc.InvalidateIndexes()
	if pc.HasImprints() {
		t.Fatal("InvalidateIndexes must drop the imprints")
	}
}

func TestSelectBoxMatchesScan(t *testing.T) {
	pc, _ := buildCloud(t, 0.05)
	boxes := []geom.Envelope{
		geom.NewEnvelope(100, 100, 300, 250),
		geom.NewEnvelope(0, 0, 1000, 1000),
		geom.NewEnvelope(900, 900, 1200, 1200),
		geom.NewEnvelope(-50, -50, -10, -10), // fully outside
		geom.NewEnvelope(500, 500, 500.5, 500.5),
	}
	for _, box := range boxes {
		region := boxRegion(box)
		fast := pc.SelectRegionRows(region)
		slow := scanRegion(pc, region)
		if !equalRows(fast, slow) {
			t.Fatalf("box %v: filter-refine %d rows, scan %d rows", box, len(fast), len(slow))
		}
		RecycleRows(fast)
	}
}

func TestSelectGeometryAndDWithinMatchScan(t *testing.T) {
	pc, _ := buildCloud(t, 0.05)
	poly := geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
		{X: 100, Y: 150}, {X: 700, Y: 100}, {X: 850, Y: 700}, {X: 300, Y: 880},
	}}}
	fast := pc.SelectRegionRows(grid.GeometryRegion{G: poly})
	slow := scanRegion(pc, grid.GeometryRegion{G: poly})
	if !equalRows(fast, slow) {
		t.Fatalf("polygon: %d vs %d", len(fast), len(slow))
	}

	road := geom.LineString{Points: []geom.Point{{X: 0, Y: 480}, {X: 1000, Y: 520}}}
	fastD := pc.SelectRegionRows(grid.BufferRegion{G: road, D: 40})
	slowD := scanRegion(pc, grid.BufferRegion{G: road, D: 40})
	if !equalRows(fastD, slowD) {
		t.Fatalf("dwithin: %d vs %d", len(fastD), len(slowD))
	}
	if len(fastD) == 0 {
		t.Fatal("dwithin should match points near the road")
	}
}

// TestSelectNaNCoordinateRows: AppendLAS does not check coordinates, so
// a table can hold points with a NaN x or y. A polygon selection over it
// (the cell-grid path, small and large enough to fan out) must return the
// exhaustive rows — a NaN-coordinate row is never a match — not panic.
func TestSelectNaNCoordinateRows(t *testing.T) {
	nan := math.NaN()
	tri := grid.GeometryRegion{G: geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
		{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 2, Y: 4},
	}}}}
	pc := NewPointCloud()
	pc.AppendLAS([]las.Point{{X: 1, Y: 1}, {X: nan, Y: 1}, {X: 3, Y: 1}, {X: 2, Y: nan}, {X: nan, Y: nan}, {X: 2, Y: 3}})
	if got := pc.SelectRegionRows(tri); !equalRows(got, []int{0, 2, 5}) {
		t.Fatalf("small table: %v, want [0 2 5]", got)
	}

	big, _ := buildCloud(t, 0.05)
	pts := make([]las.Point, 0, 300)
	for i := range 300 {
		x, y := float64(100+i*2), float64(200+i)
		switch i % 3 {
		case 0:
			x = nan
		case 1:
			y = nan
		default:
			x, y = nan, nan
		}
		pts = append(pts, las.Point{X: x, Y: y})
	}
	big.AppendLAS(pts)
	poly := grid.GeometryRegion{G: geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
		{X: 100, Y: 150}, {X: 700, Y: 100}, {X: 850, Y: 700}, {X: 300, Y: 880},
	}}}}
	want := scanRegion(big, poly)
	for _, deg := range []int{1, 2, 4} {
		run := parRun(deg)
		if got := big.SelectRegionRowsRun(run, poly, -1, nil); !equalRows(got, want) {
			t.Fatalf("cap %d: %d rows, exhaustive %d", deg, len(got), len(want))
		}
	}
}

func TestSelectionOnEmptyTable(t *testing.T) {
	pc := NewPointCloud()
	if rows := pc.SelectRegionRows(boxRegion(geom.NewEnvelope(0, 0, 1, 1))); rows == nil || len(rows) != 0 {
		t.Fatalf("empty table selected %v, want empty non-nil", rows)
	}
	if ext := pc.Extent(); !ext.IsEmpty() {
		t.Fatal("empty table extent should be empty")
	}
}

func TestImprintFilterIsSelective(t *testing.T) {
	pc, pts := buildCloud(t, 0.1)
	box := geom.NewEnvelope(100, 100, 160, 160)
	_, ex := selectTraced(pc, boxRegion(box))
	// The filter step must pass far fewer candidates than the table size:
	// this is the memory-traffic reduction claim (§2.1.1).
	var filterOut int
	var detail string
	for _, s := range ex.Steps {
		if s.Op == "imprints.filter" {
			filterOut, detail = s.OutRows, s.Detail
		}
	}
	if filterOut == 0 {
		t.Fatal("filter step missing from trace")
	}
	if float64(filterOut) > 0.5*float64(len(pts)) {
		t.Fatalf("filter passed %d of %d rows; imprints ineffective", filterOut, len(pts))
	}
	// The trace shows the pruning: the walk opened only some of the zones.
	var hit, total int
	if _, err := fmt.Sscanf(detail, "zones %d/%d,", &hit, &total); err != nil {
		t.Fatalf("filter detail %q does not lead with zones hit/total: %v", detail, err)
	}
	if want := (pc.Len()/8 + 63) / 64; total < want || hit == 0 || hit >= total {
		t.Fatalf("filter opened %d of %d zones over %d rows", hit, total, pc.Len())
	}
}

func TestFilterRows(t *testing.T) {
	pc, pts := buildCloud(t, 0.05)
	ex := &Explain{}
	rows, err := pc.FilterRows(nil, []ColumnPred{
		{Column: ColClassification, Op: CmpEQ, Value: float64(synth.ClassBuilding)},
	}, ex)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, p := range pts {
		if p.Classification == synth.ClassBuilding {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("buildings = %d, want %d", len(rows), want)
	}
	// Chained predicates narrow monotonically.
	rows2, err := pc.FilterRows(nil, []ColumnPred{
		{Column: ColClassification, Op: CmpEQ, Value: float64(synth.ClassBuilding)},
		{Column: ColZ, Op: CmpGT, Value: 15},
	}, ex)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) > len(rows) {
		t.Fatal("second predicate must narrow")
	}
	// Between.
	rows3, err := pc.FilterRows(nil, []ColumnPred{
		{Column: ColZ, Op: CmpBetween, Value: 0, Value2: 5},
	}, ex)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows3 {
		if pc.Z()[r] < 0 || pc.Z()[r] > 5 {
			t.Fatal("between predicate violated")
		}
	}
	// Unknown column errors.
	if _, err := pc.FilterRows(nil, []ColumnPred{{Column: "bogus", Op: CmpEQ}}, ex); err == nil {
		t.Fatal("unknown column should error")
	}
}

func TestCmpOps(t *testing.T) {
	cases := []struct {
		op   CmpOp
		v    float64
		want bool
	}{
		{CmpEQ, 5, true}, {CmpEQ, 4, false},
		{CmpNE, 4, true}, {CmpNE, 5, false},
		{CmpLT, 4, true}, {CmpLT, 5, false},
		{CmpLE, 5, true}, {CmpLE, 6, false},
		{CmpGT, 6, true}, {CmpGT, 5, false},
		{CmpGE, 5, true}, {CmpGE, 4, false},
	}
	for _, c := range cases {
		p := ColumnPred{Op: c.op, Value: 5}
		if p.Matches(c.v) != c.want {
			t.Errorf("%v %v: got %v", c.op, c.v, !c.want)
		}
	}
	b := ColumnPred{Op: CmpBetween, Value: 2, Value2: 4}
	if !b.Matches(2) || !b.Matches(4) || b.Matches(4.5) {
		t.Fatal("between semantics wrong")
	}
	if CmpEQ.String() != "=" || CmpBetween.String() != "between" {
		t.Fatal("op strings wrong")
	}
}

func TestAggregates(t *testing.T) {
	pc, pts := buildCloud(t, 0.05)
	ex := &Explain{}
	n, err := pc.Aggregate(nil, AggCount, "", ex)
	if err != nil || int(n) != len(pts) {
		t.Fatalf("count = %v, %v", n, err)
	}
	var zsum, zmin, zmax float64
	zmin, zmax = math.Inf(1), math.Inf(-1)
	for _, p := range pts {
		zsum += p.Z
		zmin = math.Min(zmin, p.Z)
		zmax = math.Max(zmax, p.Z)
	}
	avg, err := pc.Aggregate(nil, AggAvg, ColZ, ex)
	if err != nil || math.Abs(avg-zsum/float64(len(pts))) > 1e-9 {
		t.Fatalf("avg = %v", avg)
	}
	lo, err := pc.Aggregate(nil, AggMin, ColZ, ex)
	if err != nil || lo != zmin {
		t.Fatalf("min = %v, want %v", lo, zmin)
	}
	hi, err := pc.Aggregate(nil, AggMax, ColZ, ex)
	if err != nil || hi != zmax {
		t.Fatalf("max = %v, want %v", hi, zmax)
	}
	sum, err := pc.Aggregate([]int{0, 1, 2}, AggSum, ColZ, ex)
	if err != nil || math.Abs(sum-(pts[0].Z+pts[1].Z+pts[2].Z)) > 1e-9 {
		t.Fatalf("sum = %v", sum)
	}
	if _, err := pc.Aggregate(nil, AggAvg, "bogus", ex); err == nil {
		t.Fatal("unknown column should error")
	}
	if _, err := pc.Aggregate([]int{}, AggAvg, ColZ, ex); err == nil {
		t.Fatal("avg of empty should error")
	}
	if AggAvg.String() != "avg" || AggCount.String() != "count" {
		t.Fatal("agg names wrong")
	}
}

func TestStorageAndImprintOverhead(t *testing.T) {
	pc, _ := buildCloud(t, 0.1)
	sx, sy := pc.ImprintStats()
	if sx.N != pc.Len() || sy.N != pc.Len() {
		t.Fatal("imprint stats N mismatch")
	}
	// Overhead must be within the paper's reported band order of magnitude.
	if sx.OverheadPercent > 15 || sy.OverheadPercent > 15 {
		t.Fatalf("imprint overhead x=%.2f%% y=%.2f%%, want < 15%%", sx.OverheadPercent, sy.OverheadPercent)
	}
	if pc.IndexBytes() != sx.Bytes+sy.Bytes {
		t.Fatal("index bytes mismatch")
	}
}

// TestExplainRefineDetail pins the grid.refine step's detail: a rectangle
// reads "rect, no grid"; the same box with an extra collinear vertex goes
// through the cell grid and reports its dimensions.
func TestExplainRefineDetail(t *testing.T) {
	pc, _ := buildCloud(t, 0.02)
	box5 := geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
		{X: 0, Y: 0}, {X: 250, Y: 0}, {X: 500, Y: 0}, {X: 500, Y: 500}, {X: 0, Y: 500},
	}}}
	for _, c := range []struct {
		name   string
		region grid.Region
		want   func(string) bool
	}{
		{"rect", boxRegion(geom.NewEnvelope(0, 0, 500, 500)), func(d string) bool { return d == "rect, no grid" }},
		{"5-vertex", grid.GeometryRegion{G: box5}, func(d string) bool {
			var nx, ny, nb int
			_, err := fmt.Sscanf(d, "%dx%d cells, %d boundary", &nx, &ny, &nb)
			return err == nil && nx > 0 && ny > 0
		}},
	} {
		rows, ex := selectTraced(pc, c.region)
		RecycleRows(rows)
		var detail string
		for _, s := range ex.Steps {
			if s.Op == opGridRefine {
				detail = s.Detail
			}
		}
		if !c.want(detail) {
			t.Fatalf("%s: grid.refine detail %q", c.name, detail)
		}
	}
}

func TestExplainString(t *testing.T) {
	pc, _ := buildCloud(t, 0.02)
	_, ex := selectTraced(pc, boxRegion(geom.NewEnvelope(0, 0, 500, 500)))
	s := ex.String()
	if s == "" || s == "(empty plan)" {
		t.Fatal("explain should render")
	}
	if ex.Total() <= 0 {
		t.Fatal("total time should be positive")
	}
	var empty *Explain
	if empty.String() != "(empty plan)" || empty.Total() != 0 {
		t.Fatal("nil explain should be inert")
	}
	empty.Add("x", "y", 0, 0, 0) // must not panic
}

// TestExplainStringKeepsLongDetail: the rendered table carries every
// detail whole, however long, so a degree or a count at its end shows.
func TestExplainStringKeepsLongDetail(t *testing.T) {
	detail := "order 3, 7 classes in 8 slots, 2 aggs, tile meta [par 2]"
	ex := &Explain{}
	ex.Add(opTileAgg, detail, 10, 10, 0)
	if len(detail) <= 34 || !strings.Contains(ex.String(), detail) {
		t.Fatalf("detail %q cut from the rendered trace:\n%s", detail, ex.String())
	}
}
