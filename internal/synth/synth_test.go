package synth

import (
	"math"
	"path/filepath"
	"testing"

	"gisnav/internal/geom"
	"gisnav/internal/las"
)

func testRegion() geom.Envelope { return geom.NewEnvelope(0, 0, 4000, 4000) }

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestRNGDistributions(t *testing.T) {
	r := NewRNG(7)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("Float64 mean = %v", mean)
	}
	counts := make([]int, 10)
	for i := 0; i < n; i++ {
		counts[r.Intn(10)]++
	}
	for d, c := range counts {
		if c < n/10-400 || c > n/10+400 {
			t.Fatalf("Intn bucket %d = %d", d, c)
		}
	}
	lo, hi := 5.0, 9.0
	for i := 0; i < 100; i++ {
		v := r.Range(lo, hi)
		if v < lo || v >= hi {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
}

func TestValueNoiseProperties(t *testing.T) {
	// Determinism and range.
	for i := 0; i < 500; i++ {
		x := float64(i) * 0.37
		y := float64(i) * 0.91
		v1 := ValueNoise(5, x, y)
		v2 := ValueNoise(5, x, y)
		if v1 != v2 {
			t.Fatal("noise must be deterministic")
		}
		if v1 < 0 || v1 >= 1 {
			t.Fatalf("noise out of range: %v", v1)
		}
	}
	// Continuity: close inputs give close outputs.
	for i := 0; i < 200; i++ {
		x := float64(i) * 0.13
		d := math.Abs(ValueNoise(5, x, 1.5) - ValueNoise(5, x+0.001, 1.5))
		if d > 0.01 {
			t.Fatalf("noise discontinuity: %v", d)
		}
	}
	// Different seeds differ.
	diff := false
	for i := 0; i < 20; i++ {
		if ValueNoise(1, float64(i)+0.5, 0.5) != ValueNoise(2, float64(i)+0.5, 0.5) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("seeds should change the field")
	}
}

func TestFBMRangeAndOctaves(t *testing.T) {
	for i := 0; i < 200; i++ {
		v := FBM(9, float64(i)*0.21, float64(i)*0.17, 4)
		if v < 0 || v >= 1 {
			t.Fatalf("fbm out of range: %v", v)
		}
	}
	if FBM(9, 1, 1, 0) != 0 {
		t.Fatal("zero octaves should be zero")
	}
}

func TestTerrainFeatures(t *testing.T) {
	tr := NewTerrain(11, testRegion())
	// Canals are water below ground level.
	s := tr.At(5, 5) // on the canal grid origin
	if s.Class != ClassWater || s.Z != -1.8 {
		t.Fatalf("canal surface = %+v", s)
	}
	// Urban core contains buildings somewhere.
	core := tr.urbanCore()
	foundBuilding, foundStreet := false, false
	for i := 0; i < 2000 && !(foundBuilding && foundStreet); i++ {
		x := core.MinX + math.Mod(float64(i)*37.7, core.Width())
		y := core.MinY + math.Mod(float64(i)*53.3, core.Height())
		switch tr.At(x, y).Class {
		case ClassBuilding:
			foundBuilding = true
		case ClassRoadSurface:
			foundStreet = true
		}
	}
	if !foundBuilding || !foundStreet {
		t.Fatalf("urban core should have buildings (%v) and streets (%v)", foundBuilding, foundStreet)
	}
	// Buildings rise above the bare ground.
	for i := 0; i < 200; i++ {
		x := core.MinX + core.Width()*hashUnit(3, int64(i), 0)
		y := core.MinY + core.Height()*hashUnit(3, 0, int64(i))
		s := tr.At(x, y)
		if s.Class == ClassBuilding {
			if s.BuildingHeight <= 0 {
				t.Fatal("building without height")
			}
			if got := tr.GroundAt(x, y); got >= s.Z {
				t.Fatal("ground must be below roof")
			}
		}
	}
	// Dunes: western edge is higher on average than centre-east farmland.
	var west, east float64
	n := 0
	for i := 0; i < 50; i++ {
		y := 100 + float64(i)*70
		if tr.At(30, y).Class == ClassWater || tr.At(3000, y).Class == ClassWater {
			continue
		}
		west += tr.At(30, y).Z
		east += tr.At(3000, y).Z
		n++
	}
	if n > 10 && west/float64(n) <= east/float64(n) {
		t.Fatalf("dunes should raise the west: west=%v east=%v", west/float64(n), east/float64(n))
	}
	// Determinism.
	tr2 := NewTerrain(11, testRegion())
	for i := 0; i < 100; i++ {
		x, y := float64(i)*37.3, float64(i)*11.9
		if tr.At(x, y) != tr2.At(x, y) {
			t.Fatal("terrain must be deterministic")
		}
	}
}

func TestGenerateTileScanOrderAndAttributes(t *testing.T) {
	tr := NewTerrain(13, testRegion())
	env := geom.NewEnvelope(1000, 1000, 1200, 1200)
	pts := GenerateTile(tr, TileSpec{Env: env, Density: 0.05, Seed: 99, SourceID: 1234})
	if len(pts) == 0 {
		t.Fatal("tile should have points")
	}
	// Expected count ≈ density × area (plus canopy second returns).
	expected := 0.05 * env.Area()
	if float64(len(pts)) < expected*0.8 || float64(len(pts)) > expected*1.7 {
		t.Fatalf("point count %d far from expected %v", len(pts), expected)
	}
	prevGPS := 0.0
	for i, p := range pts {
		if !env.ContainsPoint(p.X, p.Y) {
			t.Fatalf("point %d outside tile: %v %v", i, p.X, p.Y)
		}
		if p.GPSTime < prevGPS {
			t.Fatalf("gps time must be non-decreasing at %d", i)
		}
		prevGPS = p.GPSTime
		if p.PointSourceID != 1234 {
			t.Fatalf("source id = %d", p.PointSourceID)
		}
		if p.ReturnNumber < 1 || p.ReturnNumber > p.NumReturns {
			t.Fatalf("return numbering broken: %d/%d", p.ReturnNumber, p.NumReturns)
		}
	}
	// Scan order: successive first returns should usually be near each other
	// (local clustering in file order).
	near := 0
	total := 0
	for i := 1; i < len(pts); i++ {
		if pts[i].ReturnNumber != 1 {
			continue
		}
		total++
		if math.Abs(pts[i].X-pts[i-1].X) < 30 && math.Abs(pts[i].Y-pts[i-1].Y) < 30 {
			near++
		}
	}
	if float64(near)/float64(total) < 0.9 {
		t.Fatalf("scan order not clustered: %d/%d near", near, total)
	}
	// Multi-return pairs share a pulse.
	for i := 1; i < len(pts); i++ {
		if pts[i].ReturnNumber == 2 {
			if pts[i-1].ReturnNumber != 1 || pts[i-1].NumReturns != 2 {
				t.Fatal("second return must follow its first return")
			}
			if pts[i].Z >= pts[i-1].Z {
				t.Fatal("ground return must be below canopy return")
			}
		}
	}
	// Determinism.
	pts2 := GenerateTile(tr, TileSpec{Env: env, Density: 0.05, Seed: 99, SourceID: 1234})
	if len(pts2) != len(pts) || pts2[17] != pts[17] {
		t.Fatal("tile generation must be deterministic")
	}
	// Degenerate inputs.
	if GenerateTile(tr, TileSpec{Env: env, Density: 0}) != nil {
		t.Fatal("zero density should yield nil")
	}
	if GenerateTile(tr, TileSpec{Env: geom.EmptyEnvelope(), Density: 1}) != nil {
		t.Fatal("empty envelope should yield nil")
	}
}

func TestWriteTiles(t *testing.T) {
	tr := NewTerrain(17, testRegion())
	dir := t.TempDir()
	region := geom.NewEnvelope(0, 0, 400, 400)
	ds, err := WriteTiles(tr, region, 2, 2, 0.02, 3, false, 5, filepath.Join(dir, "las"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Files) != 4 || ds.Points == 0 {
		t.Fatalf("dataset = %+v", ds)
	}
	total := 0
	for _, f := range ds.Files {
		h, pts, err := las.ReadFile(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if int(h.PointCount) != len(pts) {
			t.Fatal("header count mismatch")
		}
		total += len(pts)
	}
	if total != ds.Points {
		t.Fatalf("file points %d != dataset points %d", total, ds.Points)
	}
	// Compressed variant round-trips and is smaller in aggregate.
	dsz, err := WriteTiles(tr, region, 2, 2, 0.02, 3, true, 5, filepath.Join(dir, "laz"))
	if err != nil {
		t.Fatal(err)
	}
	if dsz.Points != ds.Points {
		t.Fatal("laz tiles must have same points")
	}
	if sizeOf(t, dsz.Files) >= sizeOf(t, ds.Files) {
		t.Fatal("laz tiles should be smaller")
	}
	for _, f := range dsz.Files {
		if _, _, err := las.ReadAnyFile(f); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
	}
}

func sizeOf(t *testing.T, files []string) int64 {
	t.Helper()
	var n int64
	for _, f := range files {
		fi, err := statFile(f)
		if err != nil {
			t.Fatal(err)
		}
		n += fi
	}
	return n
}

func TestGenerateOSM(t *testing.T) {
	tr := NewTerrain(19, testRegion())
	feats := GenerateOSM(tr, 3)
	if len(feats) < 50 {
		t.Fatalf("too few features: %d", len(feats))
	}
	classes := map[string]int{}
	for _, f := range feats {
		classes[f.Class]++
		if f.Name == "" || f.ID == 0 || f.Geom == nil {
			t.Fatalf("incomplete feature %+v", f)
		}
		if _, isPoint := f.Geom.(geom.Point); !isPoint && f.Geom.IsEmpty() {
			t.Fatalf("empty geometry on %s", f.Name)
		}
	}
	for _, c := range []string{ClassMotorway, ClassPrimary, ClassResidential, ClassRiver, ClassCanal, ClassPOI} {
		if classes[c] == 0 {
			t.Fatalf("class %s missing", c)
		}
	}
	if classes[ClassMotorway] != 5 {
		t.Fatalf("motorways = %d, want ring + 4 radials", classes[ClassMotorway])
	}
	m := Motorways(feats)
	if len(m) != 5 {
		t.Fatalf("Motorways() = %d", len(m))
	}
	// IDs are unique.
	seen := map[int64]bool{}
	for _, f := range feats {
		if seen[f.ID] {
			t.Fatalf("duplicate id %d", f.ID)
		}
		seen[f.ID] = true
	}
	// Determinism.
	feats2 := GenerateOSM(tr, 3)
	if len(feats2) != len(feats) || feats2[7].Name != feats[7].Name {
		t.Fatal("osm generation must be deterministic")
	}
}

func TestGenerateUrbanAtlas(t *testing.T) {
	tr := NewTerrain(23, testRegion())
	osm := GenerateOSM(tr, 3)
	zones := GenerateUrbanAtlas(tr, Motorways(osm), 20, 20, 5)
	if len(zones) != 400 {
		t.Fatalf("zones = %d", len(zones))
	}
	codes := map[string]int{}
	var area float64
	for _, z := range zones {
		codes[z.Code]++
		area += z.Geom.Area()
		if z.Label != UALabel(z.Code) {
			t.Fatalf("label mismatch on %d", z.ID)
		}
		if z.PopDensity < 0 {
			t.Fatal("negative population density")
		}
	}
	// Coverage tiles the region exactly.
	if math.Abs(area-testRegion().Area()) > 1 {
		t.Fatalf("coverage area %v != region %v", area, testRegion().Area())
	}
	// The important classes for the demo queries exist.
	for _, c := range []string{UAFastTransit, UAContinuousUrban, UAArable, UAWater} {
		if codes[c] == 0 {
			t.Fatalf("code %s missing from coverage (%v)", c, codes)
		}
	}
	// Fast-transit zones hug motorways.
	ms := Motorways(osm)
	for _, z := range zones {
		if z.Code != UAFastTransit {
			continue
		}
		c := z.Geom.Envelope().Center()
		nearAny := false
		for _, m := range ms {
			if geom.DistancePointToGeometry(c.X, c.Y, m) <= 130 {
				nearAny = true
				break
			}
		}
		if !nearAny {
			t.Fatalf("fast transit zone %d far from all motorways", z.ID)
		}
	}
	// Urban population densities dominate rural ones.
	if codes[UAContinuousUrban] > 0 && codes[UAArable] > 0 {
		var urb, rur float64
		var nu, nr int
		for _, z := range zones {
			switch z.Code {
			case UAContinuousUrban:
				urb += z.PopDensity
				nu++
			case UAArable:
				rur += z.PopDensity
				nr++
			}
		}
		if urb/float64(nu) <= rur/float64(nr) {
			t.Fatal("urban density should exceed rural")
		}
	}
	if UALabel("99999") != "Unknown" {
		t.Fatal("unknown code label")
	}
}
