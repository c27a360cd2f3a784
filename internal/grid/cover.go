// Tile↔region span: relates the tiles of an sfc.Grid quantiser to
// a query region, the primitive behind the pre-aggregation pyramid's
// interior/boundary split. The pyramid classifies the tiles of the span
// with the same Region.Classify the refiner's bulk-accept path relies on,
// so the split is consistent with per-row Contains membership.
package grid

import "gisnav/internal/sfc"

// TileSpan returns the inclusive cell-coordinate rectangle of quantiser g
// tiles that can contain region points: the region's envelope clipped to
// the grid extent, quantised through Cell. ok is false when the region
// cannot intersect the extent, or when the clipped envelope still has
// non-finite bounds (NaN corners) — Cell's clamping has no meaningful
// span to return then. Infinite envelope bounds that a finite extent
// clips away are fine: a whole-world viewport spans every tile. Every
// region point p satisfies the envelope contract (env.MinX <= p.x <=
// env.MaxX, same for y) and Cell is monotone per axis, so any tile
// holding a region point lies inside the returned rectangle.
func TileSpan(g sfc.Grid, region Region) (x0, y0, x1, y1 uint32, ok bool) {
	env := region.Envelope()
	if env.IsEmpty() || g.Extent.IsEmpty() {
		return 0, 0, 0, 0, false
	}
	clip := env.Intersection(g.Extent)
	if clip.IsEmpty() || !envFinite(clip) {
		return 0, 0, 0, 0, false
	}
	x0, y0 = g.Cell(clip.MinX, clip.MinY)
	x1, y1 = g.Cell(clip.MaxX, clip.MaxY)
	return x0, y0, x1, y1, true
}
