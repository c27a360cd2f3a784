// Package sfc implements the 2-D space-filling curves used as spatial
// location codes by file-based point-cloud tools and block-based stores
// (paper §2.3): the Morton (Z-order) curve and the Hilbert curve. Both map a
// pair of 32-bit cell coordinates to a 64-bit key whose ordering clusters
// spatially nearby cells.
//
// The package also provides a Grid quantiser that maps floating-point
// coordinates in an envelope onto curve cells, the form in which the curves
// are consumed by lassort-style re-ordering and Hilbert-blocked patch stores.
package sfc

import "gisnav/internal/geom"

// MortonEncode interleaves the bits of x and y (x in the even positions) to
// produce the Z-order key of cell (x, y).
func MortonEncode(x, y uint32) uint64 {
	return spread(x) | spread(y)<<1
}

// MortonDecode is the inverse of MortonEncode.
func MortonDecode(z uint64) (x, y uint32) {
	return compact(z), compact(z >> 1)
}

// spread distributes the 32 bits of v into the even bit positions of a
// 64-bit word using the classic parallel-prefix bit tricks.
func spread(v uint32) uint64 {
	w := uint64(v)
	w = (w | w<<16) & 0x0000FFFF0000FFFF
	w = (w | w<<8) & 0x00FF00FF00FF00FF
	w = (w | w<<4) & 0x0F0F0F0F0F0F0F0F
	w = (w | w<<2) & 0x3333333333333333
	w = (w | w<<1) & 0x5555555555555555
	return w
}

// compact gathers the even bits of w into a 32-bit word; inverse of spread.
func compact(w uint64) uint32 {
	w &= 0x5555555555555555
	w = (w | w>>1) & 0x3333333333333333
	w = (w | w>>2) & 0x0F0F0F0F0F0F0F0F
	w = (w | w>>4) & 0x00FF00FF00FF00FF
	w = (w | w>>8) & 0x0000FFFF0000FFFF
	w = (w | w>>16) & 0x00000000FFFFFFFF
	return uint32(w)
}

// HilbertEncode maps cell (x, y) on a 2^order × 2^order grid to its distance
// along the Hilbert curve. order must be in [1, 32]; x and y must be below
// 2^order. The implementation is the classic xy2d rotation walk (Sagan;
// paper reference [15]).
func HilbertEncode(order uint, x, y uint32) uint64 {
	var d uint64
	for s := uint32(1) << (order - 1); s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		x, y = hilbertRotate(s, x, y, rx, ry)
	}
	return d
}

// HilbertDecode is the inverse of HilbertEncode (d2xy).
func HilbertDecode(order uint, d uint64) (x, y uint32) {
	t := d
	for s := uint32(1); s < 1<<order; s <<= 1 {
		rx := uint32(1) & uint32(t/2)
		ry := uint32(1) & uint32(t^uint64(rx))
		x, y = hilbertRotate(s, x, y, rx, ry)
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}

// hilbertRotate rotates/flips a quadrant appropriately.
func hilbertRotate(s, x, y, rx, ry uint32) (uint32, uint32) {
	if ry == 0 {
		if rx == 1 {
			x = s - 1 - x
			y = s - 1 - y
		}
		x, y = y, x
	}
	return x, y
}

// Curve selects one of the supported space-filling curves.
type Curve uint8

// Supported curves.
const (
	Morton Curve = iota
	Hilbert
)

// String names the curve.
func (c Curve) String() string {
	if c == Hilbert {
		return "hilbert"
	}
	return "morton"
}

// Grid quantises floating-point coordinates within an envelope onto a
// 2^Order × 2^Order cell raster so they can be fed to a curve.
type Grid struct {
	Extent geom.Envelope
	Order  uint // bits per dimension, 1..32
}

// NewGrid builds a quantiser over extent with 2^order cells per side.
func NewGrid(extent geom.Envelope, order uint) Grid {
	if order < 1 {
		order = 1
	}
	if order > 32 {
		order = 32
	}
	return Grid{Extent: extent, Order: order}
}

// Cell returns the raster cell of (x, y), clamped to the extent.
func (g Grid) Cell(x, y float64) (cx, cy uint32) {
	q := g.Quantizer()
	return q.Cell(x, y)
}

// Quantizer is g's Cell with the grid's constants worked out once, for
// loops that quantise many points: its Cell inlines, where Grid.Cell is a
// call per point.
type Quantizer struct {
	minX, minY, w, h, n float64
	max                 uint64 // the last cell's index
}

// Quantizer returns g's quantiser.
func (g Grid) Quantizer() Quantizer {
	return Quantizer{minX: g.Extent.MinX, minY: g.Extent.MinY, w: g.Extent.Width(), h: g.Extent.Height(),
		n: float64(uint64(1) << g.Order), max: uint64(1)<<g.Order - 1}
}

// Cell returns the raster cell of (x, y), clamped to the extent.
func (q *Quantizer) Cell(x, y float64) (cx, cy uint32) {
	return q.clamp((x - q.minX) / q.w * q.n), q.clamp((y - q.minY) / q.h * q.n)
}

func (q *Quantizer) clamp(f float64) uint32 {
	if f < 0 {
		return 0
	}
	if v := uint64(f); v <= q.max {
		return uint32(v)
	}
	return uint32(q.max)
}

// CellBox returns the closed envelope of raster cell (cx, cy) — the
// spatial inverse of Cell. Interior edges are derived from the same extent
// arithmetic Cell quantises with, so a coordinate maps into a cell whose
// closed box contains it (up to float rounding at shared interior edges,
// the same tolerance the grid refiner's cell classification accepts);
// cells on the extent boundary snap their outer edge to the extent
// exactly, so coordinates that Cell clamps — points on the extent maximum
// — stay inside the last cell's box.
func (g Grid) CellBox(cx, cy uint32) geom.Envelope {
	n := float64(uint64(1) << g.Order)
	last := uint32(1)<<g.Order - 1
	w := g.Extent.Width() / n
	h := g.Extent.Height() / n
	box := geom.Envelope{
		MinX: g.Extent.MinX + float64(cx)*w,
		MinY: g.Extent.MinY + float64(cy)*h,
		MaxX: g.Extent.MinX + float64(cx+1)*w,
		MaxY: g.Extent.MinY + float64(cy+1)*h,
	}
	if cx == 0 {
		box.MinX = g.Extent.MinX
	}
	if cy == 0 {
		box.MinY = g.Extent.MinY
	}
	if cx >= last {
		box.MaxX = g.Extent.MaxX
	}
	if cy >= last {
		box.MaxY = g.Extent.MaxY
	}
	return box
}

// Key returns the curve key of coordinate (x, y) under curve c.
func (g Grid) Key(c Curve, x, y float64) uint64 {
	cx, cy := g.Cell(x, y)
	if c == Hilbert {
		return HilbertEncode(g.Order, cx, cy)
	}
	return MortonEncode(cx, cy)
}
