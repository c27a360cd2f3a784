package grid

import (
	"math/rand"
	"testing"

	"gisnav/internal/colstore"
	"gisnav/internal/geom"
)

// zoneGrid builds a scattering of small square zones.
func zoneGrid() []geom.Geometry {
	var out []geom.Geometry
	for i := 0; i < 10; i++ {
		x := float64(i) * 100
		out = append(out, geom.NewEnvelope(x, x/2, x+40, x/2+40).ToPolygon())
	}
	return out
}

func TestMultiRegionMatchesCollection(t *testing.T) {
	zones := zoneGrid()
	mr := NewMultiRegion(zones)
	coll := geom.Collection{Geometries: zones}
	xs, ys := randomCloud(10_000, geom.NewEnvelope(-50, -50, 1100, 600), 21)
	cand := colstore.FullRange(len(xs))

	fast, _ := RefineInto(xs, ys, cand, mr, Options{}, nil)
	slow, _ := RefineInto(xs, ys, cand, GeometryRegion{G: coll}, Options{}, nil)
	if !equalInts(fast, slow) {
		t.Fatalf("multiregion %d rows, collection %d rows", len(fast), len(slow))
	}
	if len(fast) == 0 {
		t.Fatal("zones should contain points")
	}
	if !mr.Envelope().ContainsEnvelope(zones[0].Envelope()) {
		t.Fatal("multiregion envelope must cover members")
	}
}

func TestMultiRegionClassify(t *testing.T) {
	zones := zoneGrid()
	mr := NewMultiRegion(zones)
	// Box inside the first zone.
	if got := mr.Classify(geom.NewEnvelope(10, 10, 20, 20)); got != geom.BoxInside {
		t.Fatalf("inner box = %v", got)
	}
	// Box far away from all zones.
	if got := mr.Classify(geom.NewEnvelope(5000, 5000, 5100, 5100)); got != geom.BoxOutside {
		t.Fatalf("far box = %v", got)
	}
	// Box straddling a zone edge.
	if got := mr.Classify(geom.NewEnvelope(30, 10, 60, 20)); got != geom.BoxBoundary {
		t.Fatalf("straddling box = %v", got)
	}
}

func TestMultiBufferMatchesBufferRegion(t *testing.T) {
	roads := []geom.Geometry{
		geom.LineString{Points: []geom.Point{{X: 0, Y: 100}, {X: 1000, Y: 120}}},
		geom.LineString{Points: []geom.Point{{X: 500, Y: 0}, {X: 480, Y: 600}}},
		geom.LineString{Points: []geom.Point{{X: 0, Y: 400}, {X: 900, Y: 380}}},
	}
	const d = 35
	mb := NewMultiBuffer(roads, d)
	coll := geom.Collection{Geometries: roads}
	xs, ys := randomCloud(10_000, geom.NewEnvelope(-100, -100, 1100, 700), 22)
	cand := colstore.FullRange(len(xs))

	fast, _ := RefineInto(xs, ys, cand, mb, Options{}, nil)
	slow, _ := RefineInto(xs, ys, cand, BufferRegion{G: coll, D: d}, Options{}, nil)
	if !equalInts(fast, slow) {
		t.Fatalf("multibuffer %d rows, buffer %d rows", len(fast), len(slow))
	}
	if len(fast) == 0 {
		t.Fatal("buffer should contain points")
	}
}

func TestMultiBufferClassifySoundness(t *testing.T) {
	roads := []geom.Geometry{
		geom.LineString{Points: []geom.Point{{X: 0, Y: 0}, {X: 200, Y: 50}}},
		geom.LineString{Points: []geom.Point{{X: 100, Y: 200}, {X: 300, Y: 180}}},
	}
	const d = 25
	mb := NewMultiBuffer(roads, d)
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 400; iter++ {
		x0 := rng.Float64()*500 - 100
		y0 := rng.Float64()*500 - 100
		box := geom.NewEnvelope(x0, y0, x0+rng.Float64()*60, y0+rng.Float64()*60)
		rel := mb.Classify(box)
		for k := 0; k < 15; k++ {
			px := box.MinX + rng.Float64()*box.Width()
			py := box.MinY + rng.Float64()*box.Height()
			in := mb.Contains(px, py)
			if rel == geom.BoxInside && !in {
				t.Fatalf("box %v inside but (%v,%v) out", box, px, py)
			}
			if rel == geom.BoxOutside && in {
				t.Fatalf("box %v outside but (%v,%v) in", box, px, py)
			}
		}
	}
	if mb.Classify(geom.EmptyEnvelope()) != geom.BoxOutside {
		t.Fatal("empty box must be outside")
	}
}

func TestEmptyMultiRegions(t *testing.T) {
	mr := NewMultiRegion(nil)
	if !mr.Envelope().IsEmpty() {
		t.Fatal("empty multiregion should have empty envelope")
	}
	if mr.Contains(0, 0) {
		t.Fatal("empty multiregion contains nothing")
	}
	mb := NewMultiBuffer(nil, 10)
	if mb.Contains(0, 0) || !mb.Envelope().IsEmpty() {
		t.Fatal("empty multibuffer contains nothing")
	}
	if mb.Classify(geom.NewEnvelope(0, 0, 1, 1)) != geom.BoxOutside {
		t.Fatal("boxes are outside an empty multibuffer")
	}
}
