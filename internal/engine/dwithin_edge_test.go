package engine

import (
	"math"
	"testing"

	"gisnav/internal/geom"
	"gisnav/internal/grid"
)

// Edge-case hardening for ST_DWithin-style selections: distances that are
// negative, NaN or ±Inf, and empty geometry (collections), must all yield an
// empty but non-nil selection — nil means "all rows" downstream, and a
// non-finite distance must never reach grid sizing via Envelope.Buffer.

func assertEmptySelection(t *testing.T, name string, rows []int) {
	t.Helper()
	if rows == nil {
		t.Fatalf("%s: rows are nil (reads as \"all rows\" downstream)", name)
	}
	if len(rows) != 0 {
		t.Fatalf("%s: got %d rows, want 0", name, len(rows))
	}
}

// selectDWithin selects the rows within d of g.
func selectDWithin(pc *PointCloud, g geom.Geometry, d float64) []int {
	return pc.SelectRegionRows(grid.BufferRegion{G: g, D: d})
}

func TestSelectDWithinBadDistances(t *testing.T) {
	pc, _ := buildCloud(t, 0.05)
	road := geom.LineString{Points: []geom.Point{{X: 100, Y: 100}, {X: 900, Y: 900}}}

	for _, tc := range []struct {
		name string
		d    float64
	}{
		{"negative", -5},
		{"nan", math.NaN()},
		{"plus-inf", math.Inf(1)},
		{"minus-inf", math.Inf(-1)},
	} {
		assertEmptySelection(t, "DWithin "+tc.name, selectDWithin(pc, road, tc.d))
	}

	// Sanity: a valid distance over the same geometry does select rows.
	ok := selectDWithin(pc, road, 50)
	if len(ok) == 0 {
		t.Fatal("valid DWithin selected nothing; edge-case tests are vacuous")
	}
	RecycleRows(ok)

	// Zero distance is valid: only points exactly on the geometry match
	// (possibly none), and it must not be rejected as "negative".
	zero := selectDWithin(pc, road, 0)
	if zero == nil {
		t.Fatal("d=0 returned nil rows")
	}
	RecycleRows(zero)
}

func TestSelectDWithinEmptyGeometries(t *testing.T) {
	pc, _ := buildCloud(t, 0.02)
	for _, tc := range []struct {
		name string
		g    geom.Geometry
	}{
		{"empty multipolygon", geom.MultiPolygon{}},
		{"empty collection", geom.Collection{}},
		{"empty linestring", geom.LineString{}},
	} {
		assertEmptySelection(t, "DWithin "+tc.name, selectDWithin(pc, tc.g, 100))
		assertEmptySelection(t, "geometry "+tc.name, pc.SelectRegionRows(grid.GeometryRegion{G: tc.g}))
	}
}

func TestPointsNearFeaturesBadDistance(t *testing.T) {
	pc, _ := buildCloud(t, 0.02)
	vt := NewVectorTable()
	vt.Append(1, "road", "r1", geom.LineString{Points: []geom.Point{{X: 0, Y: 0}, {X: 500, Y: 500}}}, nil)
	db := NewDB()
	db.RegisterPointCloud("pc", pc)
	db.RegisterVector("vt", vt)

	for _, d := range []float64{-1, math.NaN(), math.Inf(1)} {
		assertEmptySelection(t, "PointsNearFeatures bad distance", db.PointsNearFeaturesRun(nil, pc, vt, []int{0}, d, nil))
	}
	// Empty feature row set stays empty non-nil regardless of distance.
	assertEmptySelection(t, "PointsNearFeatures no features", db.PointsNearFeaturesRun(nil, pc, vt, nil, 25, nil))
}

// TestBufferRegionGuards exercises the region interface directly, the layer
// the grid refinement sees.
func TestBufferRegionGuards(t *testing.T) {
	line := geom.LineString{Points: []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}}}
	for _, d := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := grid.BufferRegion{G: line, D: d}
		if !r.Envelope().IsEmpty() {
			t.Fatalf("BufferRegion d=%v: envelope %v not empty", d, r.Envelope())
		}
		if r.Contains(5, 0) {
			t.Fatalf("BufferRegion d=%v: Contains accepted a point", d)
		}
		if rel := r.Classify(geom.NewEnvelope(0, 0, 1, 1)); rel != geom.BoxOutside {
			t.Fatalf("BufferRegion d=%v: Classify = %v, want outside", d, rel)
		}

		m := grid.NewMultiBuffer([]geom.Geometry{line}, d)
		if !m.Envelope().IsEmpty() {
			t.Fatalf("MultiBuffer d=%v: envelope %v not empty", d, m.Envelope())
		}
		if m.Contains(5, 0) {
			t.Fatalf("MultiBuffer d=%v: Contains accepted a point", d)
		}
		if rel := m.Classify(geom.NewEnvelope(0, 0, 1, 1)); rel != geom.BoxOutside {
			t.Fatalf("MultiBuffer d=%v: Classify = %v, want outside", d, rel)
		}
	}
}
