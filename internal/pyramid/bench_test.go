package pyramid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"gisnav/internal/engine"
	"gisnav/internal/geom"
	"gisnav/internal/grid"
	"gisnav/internal/las"
)

// ladderCloud is n rows over a 1000 × 1000 extent in the order a LAS tile
// sort lays them out: 32 × 32 source tiles, each tile's rows contiguous
// and uniform inside it, with 9 classes.
func ladderCloud(n int) *engine.PointCloud {
	const side, tiles = 1000.0, 32
	rng := rand.New(rand.NewSource(46))
	tw := side / tiles
	pts := make([]las.Point, 0, n)
	for i := range n {
		t := i * tiles * tiles / n
		pts = append(pts, las.Point{
			X:              (float64(t%tiles) + rng.Float64()) * tw,
			Y:              (float64(t/tiles) + rng.Float64()) * tw,
			Z:              rng.Float64() * 100,
			Classification: uint8(rng.Intn(9)),
		})
	}
	pc := engine.NewPointCloud()
	pc.AppendLAS(pts)
	return pc
}

// ladderViews are rectangle viewports at the 13 areas of a viewer's zoom
// ladder, 0.25 % to 16 % of the extent with neighbouring areas a factor
// √2 apart, 1.6 times as wide as high, perArea places each, inside the
// extent.
func ladderViews(ext geom.Envelope, perArea int) []grid.Region {
	const levels, minFrc, maxFrc, aspect = 13, 0.0025, 0.16, 1.6
	rng := rand.New(rand.NewSource(7))
	ratio := math.Pow(maxFrc/minFrc, 1.0/(levels-1))
	var out []grid.Region
	for l := range levels {
		w := math.Sqrt(minFrc * math.Pow(ratio, float64(l)) * ext.Area() * aspect)
		h := w / aspect
		for range perArea {
			x := ext.MinX + rng.Float64()*(ext.Width()-w)
			y := ext.MinY + rng.Float64()*(ext.Height()-h)
			out = append(out, grid.GeometryRegion{G: geom.NewEnvelope(x, y, x+w, y+h).ToPolygon()})
		}
	}
	return out
}

// bankBytes is the pyramid's bank and tile-metadata footprint: what the
// base order adds; the postings hold one row id per row at any order.
func bankBytes(p *Pyramid) int {
	b := 0
	for _, l := range p.levels {
		b += 8 * len(l.cnt)
		for _, bank := range l.banks {
			b += 8 * len(bank)
		}
		b += int(unsafe.Sizeof(engine.TileBox{})) * len(l.tiles)
	}
	return b + 8*len(p.offs)
}

// BenchmarkPyramidQuery sizes the base tiles: rectangle lookups cycling
// through the zoom ladder's viewports (ladderViews, 8 places per area)
// over 2^20 tile-ordered rows, with the base order each target of rows
// per tile gives (the finest whose tiles average at least that many).
// Per lookup it reports the cover's inside and edge tiles and the edge
// rows in the region; bank_MiB is the banks' and tile metadata's size.
func BenchmarkPyramidQuery(b *testing.B) {
	pc := ladderCloud(1 << 20)
	specs := []engine.GroupedAggSpec{{Fn: engine.AggCount}, {Fn: engine.AggMin, Column: engine.ColZ}, {Fn: engine.AggMax, Column: engine.ColZ}}
	views := ladderViews(pc.Extent(), 8)
	for _, target := range []int{1024, 512, 256, 128, 64} {
		order := uint(0)
		for order < orderMask && 1<<(2*(order+1))*target <= pc.Len() {
			order++
		}
		run := new(engine.Run)
		p := newTiling(pc, pc.Epoch(), engine.ColClassification, specs, pc.Extent(), order)
		if err := p.build(run, nil); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rows=%d/order=%d", target, order), func(b *testing.B) {
			var res engine.GroupedResult
			var inside, edge, rows int
			i := 0
			for b.Loop() {
				qs, ok, err := p.QueryRegionRun(run, views[i%len(views)], specs, &res)
				if err != nil || !ok {
					b.Fatalf("lookup: ok=%v err=%v", ok, err)
				}
				inside, edge, rows = inside+qs.Interior, edge+qs.Boundary, rows+qs.BoundaryRows
				i++
			}
			b.ReportMetric(float64(inside)/float64(i), "inside_tiles/op")
			b.ReportMetric(float64(edge)/float64(i), "edge_tiles/op")
			b.ReportMetric(float64(rows)/float64(i), "edge_rows/op")
			b.ReportMetric(float64(bankBytes(p))/(1<<20), "bank_MiB")
		})
		run.Drain()
	}
}
