package sfc

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"gisnav/internal/geom"
)

func TestMortonKnownValues(t *testing.T) {
	cases := []struct {
		x, y uint32
		z    uint64
	}{
		{0, 0, 0},
		{1, 0, 1},
		{0, 1, 2},
		{1, 1, 3},
		{2, 0, 4},
		{3, 3, 15},
		{0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF},
	}
	for _, c := range cases {
		if got := MortonEncode(c.x, c.y); got != c.z {
			t.Errorf("MortonEncode(%d,%d) = %d, want %d", c.x, c.y, got, c.z)
		}
		x, y := MortonDecode(c.z)
		if x != c.x || y != c.y {
			t.Errorf("MortonDecode(%d) = (%d,%d), want (%d,%d)", c.z, x, y, c.x, c.y)
		}
	}
}

func TestQuickMortonRoundTrip(t *testing.T) {
	f := func(x, y uint32) bool {
		gx, gy := MortonDecode(MortonEncode(x, y))
		return gx == x && gy == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestHilbertOrder1(t *testing.T) {
	// The order-1 Hilbert curve visits (0,0) (0,1) (1,1) (1,0).
	want := [][2]uint32{{0, 0}, {0, 1}, {1, 1}, {1, 0}}
	for d, w := range want {
		x, y := HilbertDecode(1, uint64(d))
		if x != w[0] || y != w[1] {
			t.Errorf("d=%d: got (%d,%d), want (%d,%d)", d, x, y, w[0], w[1])
		}
		if got := HilbertEncode(1, w[0], w[1]); got != uint64(d) {
			t.Errorf("encode(%d,%d) = %d, want %d", w[0], w[1], got, d)
		}
	}
}

func TestHilbertVisitsAllCellsOnce(t *testing.T) {
	const order = 4
	const n = 1 << order
	seen := make(map[[2]uint32]bool)
	var prevX, prevY uint32
	for d := uint64(0); d < n*n; d++ {
		x, y := HilbertDecode(order, d)
		if x >= n || y >= n {
			t.Fatalf("d=%d out of range: (%d,%d)", d, x, y)
		}
		key := [2]uint32{x, y}
		if seen[key] {
			t.Fatalf("cell (%d,%d) visited twice", x, y)
		}
		seen[key] = true
		// Adjacent curve positions are adjacent cells (Manhattan distance 1).
		if d > 0 {
			dx := int64(x) - int64(prevX)
			dy := int64(y) - int64(prevY)
			if dx*dx+dy*dy != 1 {
				t.Fatalf("d=%d: step (%d,%d)→(%d,%d) not unit", d, prevX, prevY, x, y)
			}
		}
		prevX, prevY = x, y
	}
	if len(seen) != n*n {
		t.Fatalf("visited %d cells, want %d", len(seen), n*n)
	}
}

func TestQuickHilbertRoundTrip(t *testing.T) {
	f := func(x, y uint32, orderSeed uint8) bool {
		order := uint(orderSeed%16) + 16 // 16..31
		mask := uint32(1)<<order - 1
		x &= mask
		y &= mask
		d := HilbertEncode(order, x, y)
		gx, gy := HilbertDecode(order, d)
		return gx == x && gy == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// Hilbert clustering should beat Morton clustering: covering a random query
// rectangle requires fewer contiguous key runs (Moon et al.). This is the
// property block stores exploit when sorting patches (paper §2.3).
func TestHilbertClusteringBeatsMorton(t *testing.T) {
	const order = 6
	const n = 1 << order
	rng := rand.New(rand.NewSource(1))
	var mortonRuns, hilbertRuns int
	for iter := 0; iter < 300; iter++ {
		x0 := uint32(rng.Intn(n - 8))
		y0 := uint32(rng.Intn(n - 8))
		w := uint32(rng.Intn(7)) + 2
		h := uint32(rng.Intn(7)) + 2
		var mkeys, hkeys []uint64
		for x := x0; x < x0+w; x++ {
			for y := y0; y < y0+h; y++ {
				mkeys = append(mkeys, MortonEncode(x, y))
				hkeys = append(hkeys, HilbertEncode(order, x, y))
			}
		}
		mortonRuns += countRuns(mkeys)
		hilbertRuns += countRuns(hkeys)
	}
	if hilbertRuns >= mortonRuns {
		t.Fatalf("hilbert runs (%d) should be fewer than morton runs (%d)", hilbertRuns, mortonRuns)
	}
}

// countRuns counts maximal runs of consecutive integers in keys.
func countRuns(keys []uint64) int {
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	runs := 0
	for i, k := range keys {
		if i == 0 || k != keys[i-1]+1 {
			runs++
		}
	}
	return runs
}

func TestGridCellQuantisation(t *testing.T) {
	g := NewGrid(geom.NewEnvelope(0, 0, 100, 100), 4) // 16x16 cells
	cx, cy := g.Cell(0, 0)
	if cx != 0 || cy != 0 {
		t.Fatalf("origin cell = (%d,%d)", cx, cy)
	}
	cx, cy = g.Cell(100, 100) // max corner clamps into the last cell
	if cx != 15 || cy != 15 {
		t.Fatalf("max cell = (%d,%d)", cx, cy)
	}
	cx, cy = g.Cell(50, 25)
	if cx != 8 || cy != 4 {
		t.Fatalf("mid cell = (%d,%d)", cx, cy)
	}
	// Out-of-extent coordinates clamp.
	cx, cy = g.Cell(-50, 500)
	if cx != 0 || cy != 15 {
		t.Fatalf("clamped cell = (%d,%d)", cx, cy)
	}
}

// refCell is Cell as one expression per axis: the reference the hoisted
// Quantizer must equal on every input.
func refCell(g Grid, x, y float64) (uint32, uint32) {
	n := float64(uint64(1) << g.Order)
	clamp := func(f float64) uint32 {
		max := uint32(1)<<g.Order - 1
		if f < 0 {
			return 0
		}
		if v := uint64(f); v <= uint64(max) {
			return uint32(v)
		}
		return max
	}
	return clamp((x - g.Extent.MinX) / g.Extent.Width() * n), clamp((y - g.Extent.MinY) / g.Extent.Height() * n)
}

// TestQuantizerMatchesCell holds Grid.Cell and a hoisted Quantizer to the
// reference over random points, points on and one ulp either side of
// every cell edge, NaN, ±Inf, −0 and huge values, at orders 0 to 32.
func TestQuantizerMatchesCell(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, -3, 7, 7.5, 1e300, -1e300}
	for _, order := range []uint{0, 1, 4, 5, 31, 32} {
		g := Grid{Extent: geom.NewEnvelope(-3, 2, 7, 7.3), Order: order}
		q := g.Quantizer()
		var edges []float64 // x edges; y takes the same fractions of its side
		for k := 0; k <= 1<<min(order, 8); k++ {
			e := float64(k) / float64(uint64(1)<<min(order, 8))
			edges = append(edges, e, math.Nextafter(e, -1), math.Nextafter(e, 2))
		}
		for i := 0; i < 2000+len(edges)*len(edges); i++ {
			x, y := -4+rng.Float64()*12, 1+rng.Float64()*8
			switch j := i - 2000; {
			case i < len(odd)*len(odd):
				x, y = odd[i%len(odd)], odd[i/len(odd)]
			case j >= 0:
				x, y = -3+edges[j%len(edges)]*10, 2+edges[j/len(edges)]*5.3
			}
			wx, wy := refCell(g, x, y)
			if gx, gy := g.Cell(x, y); gx != wx || gy != wy {
				t.Fatalf("order %d: Cell(%v, %v) = (%d, %d), reference (%d, %d)", order, x, y, gx, gy, wx, wy)
			}
			if qx, qy := q.Cell(x, y); qx != wx || qy != wy {
				t.Fatalf("order %d: Quantizer.Cell(%v, %v) = (%d, %d), reference (%d, %d)", order, x, y, qx, qy, wx, wy)
			}
		}
	}
}

func TestGridOrderClamping(t *testing.T) {
	g := NewGrid(geom.NewEnvelope(0, 0, 1, 1), 0)
	if g.Order != 1 {
		t.Fatalf("order clamped to %d, want 1", g.Order)
	}
	g = NewGrid(geom.NewEnvelope(0, 0, 1, 1), 40)
	if g.Order != 32 {
		t.Fatalf("order clamped to %d, want 32", g.Order)
	}
}

func TestGridKeyCurves(t *testing.T) {
	g := NewGrid(geom.NewEnvelope(0, 0, 8, 8), 3)
	if k := g.Key(Morton, 0, 0); k != 0 {
		t.Fatalf("morton origin = %d", k)
	}
	if k := g.Key(Hilbert, 0, 0); k != 0 {
		t.Fatalf("hilbert origin = %d", k)
	}
	// Keys differ somewhere on the grid.
	diff := false
	for x := 0.5; x < 8; x++ {
		for y := 0.5; y < 8; y++ {
			if g.Key(Morton, x, y) != g.Key(Hilbert, x, y) {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("morton and hilbert keys should differ on a 8x8 grid")
	}
}

func TestCurveString(t *testing.T) {
	if Morton.String() != "morton" || Hilbert.String() != "hilbert" {
		t.Fatal("Curve.String wrong")
	}
}
