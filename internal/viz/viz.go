// Package viz is the visualisation substrate standing in for QGIS in the
// demo (§4): an RGB canvas with a world-coordinate transform, point / line /
// polygon rasterisation and colour ramps, written out as binary PPM images.
// Figures 1 and 2 of the paper are regenerated through it.
package viz

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"gisnav/internal/geom"
)

// Color is an 8-bit RGB colour.
type Color struct {
	R, G, B uint8
}

// Common colours.
var (
	White = Color{255, 255, 255}
	Black = Color{0, 0, 0}
)

// Canvas is an RGB raster with a world-to-pixel transform. World Y grows
// upward; pixel Y grows downward.
type Canvas struct {
	W, H   int
	extent geom.Envelope
	pix    []uint8 // 3 bytes per pixel, row-major
}

// NewCanvas allocates a w×h canvas mapping extent onto it, filled with bg.
func NewCanvas(w, h int, extent geom.Envelope, bg Color) *Canvas {
	c := &Canvas{W: w, H: h, extent: extent, pix: make([]uint8, 3*w*h)}
	for i := 0; i < w*h; i++ {
		c.pix[3*i] = bg.R
		c.pix[3*i+1] = bg.G
		c.pix[3*i+2] = bg.B
	}
	return c
}

// ToPixel converts world coordinates to pixel coordinates.
func (c *Canvas) ToPixel(x, y float64) (px, py int) {
	px = int((x - c.extent.MinX) / c.extent.Width() * float64(c.W))
	py = int((c.extent.MaxY - y) / c.extent.Height() * float64(c.H))
	return px, py
}

// SetPixel colours one pixel, ignoring out-of-range coordinates.
func (c *Canvas) SetPixel(px, py int, col Color) {
	if px < 0 || px >= c.W || py < 0 || py >= c.H {
		return
	}
	i := 3 * (py*c.W + px)
	c.pix[i] = col.R
	c.pix[i+1] = col.G
	c.pix[i+2] = col.B
}

// At reads a pixel (black when out of range).
func (c *Canvas) At(px, py int) Color {
	if px < 0 || px >= c.W || py < 0 || py >= c.H {
		return Black
	}
	i := 3 * (py*c.W + px)
	return Color{c.pix[i], c.pix[i+1], c.pix[i+2]}
}

// DrawPoint plots a world-coordinate point with the given pixel radius.
func (c *Canvas) DrawPoint(x, y float64, radius int, col Color) {
	px, py := c.ToPixel(x, y)
	if radius <= 0 {
		c.SetPixel(px, py, col)
		return
	}
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			if dx*dx+dy*dy <= radius*radius {
				c.SetPixel(px+dx, py+dy, col)
			}
		}
	}
}

// DrawSegment draws a world-coordinate line segment with Bresenham, widened
// to the given pixel width.
func (c *Canvas) DrawSegment(x1, y1, x2, y2 float64, width int, col Color) {
	px1, py1 := c.ToPixel(x1, y1)
	px2, py2 := c.ToPixel(x2, y2)
	dx := abs(px2 - px1)
	dy := -abs(py2 - py1)
	sx := sign(px2 - px1)
	sy := sign(py2 - py1)
	err := dx + dy
	x, y := px1, py1
	for {
		if width <= 1 {
			c.SetPixel(x, y, col)
		} else {
			r := width / 2
			for oy := -r; oy <= r; oy++ {
				for ox := -r; ox <= r; ox++ {
					c.SetPixel(x+ox, y+oy, col)
				}
			}
		}
		if x == px2 && y == py2 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x += sx
		}
		if e2 <= dx {
			err += dx
			y += sy
		}
	}
}

// DrawLineString draws all segments of a line string.
func (c *Canvas) DrawLineString(l geom.LineString, width int, col Color) {
	for i := 1; i < len(l.Points); i++ {
		c.DrawSegment(l.Points[i-1].X, l.Points[i-1].Y, l.Points[i].X, l.Points[i].Y, width, col)
	}
}

// FillPolygon rasterises a polygon (honouring holes) with even–odd scanline
// filling in pixel space.
func (c *Canvas) FillPolygon(p geom.Polygon, col Color) {
	env := p.Envelope()
	if env.IsEmpty() {
		return
	}
	_, pyTop := c.ToPixel(env.MinX, env.MaxY)
	_, pyBot := c.ToPixel(env.MinX, env.MinY)
	if pyTop < 0 {
		pyTop = 0
	}
	if pyBot >= c.H {
		pyBot = c.H - 1
	}
	rings := append([]geom.Ring{p.Shell}, p.Holes...)
	for py := pyTop; py <= pyBot; py++ {
		// World Y at the centre of this pixel row.
		wy := c.extent.MaxY - (float64(py)+0.5)/float64(c.H)*c.extent.Height()
		var xs []float64
		for _, r := range rings {
			pts := closedRing(r)
			for i := 1; i < len(pts); i++ {
				a, b := pts[i-1], pts[i]
				if (a.Y > wy) != (b.Y > wy) {
					x := a.X + (wy-a.Y)*(b.X-a.X)/(b.Y-a.Y)
					xs = append(xs, x)
				}
			}
		}
		sort.Float64s(xs)
		for i := 0; i+1 < len(xs); i += 2 {
			px1, _ := c.ToPixel(xs[i], wy)
			px2, _ := c.ToPixel(xs[i+1], wy)
			for px := px1; px <= px2; px++ {
				c.SetPixel(px, py, col)
			}
		}
	}
}

func closedRing(r geom.Ring) []geom.Point {
	if len(r.Points) == 0 {
		return nil
	}
	if r.Points[0] == r.Points[len(r.Points)-1] {
		return r.Points
	}
	return append(append([]geom.Point(nil), r.Points...), r.Points[0])
}

// WritePPM emits the canvas as a binary P6 PPM image.
func (c *Canvas) WritePPM(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintf(bw, "P6\n%d %d\n255\n", c.W, c.H); err != nil {
		return err
	}
	if _, err := bw.Write(c.pix); err != nil {
		return err
	}
	return bw.Flush()
}

// SavePPM writes the canvas to a file.
func (c *Canvas) SavePPM(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WritePPM(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ElevationRamp maps t ∈ [0,1] onto a hypsometric colour ramp:
// deep blue (water) → green (polder) → ochre → white (peaks/roofs).
func ElevationRamp(t float64) Color {
	t = clamp01(t)
	stops := []struct {
		at float64
		c  Color
	}{
		{0.00, Color{20, 60, 140}},
		{0.18, Color{60, 130, 80}},
		{0.45, Color{130, 170, 90}},
		{0.70, Color{170, 140, 90}},
		{0.88, Color{200, 190, 170}},
		{1.00, Color{250, 250, 250}},
	}
	for i := 1; i < len(stops); i++ {
		if t <= stops[i].at {
			f := (t - stops[i-1].at) / (stops[i].at - stops[i-1].at)
			return lerp(stops[i-1].c, stops[i].c, f)
		}
	}
	return stops[len(stops)-1].c
}

// Shade darkens a colour by factor f ∈ [0,1] (0 = black, 1 = unchanged).
func Shade(c Color, f float64) Color {
	f = clamp01(f)
	return Color{
		R: uint8(float64(c.R) * f),
		G: uint8(float64(c.G) * f),
		B: uint8(float64(c.B) * f),
	}
}

func lerp(a, b Color, f float64) Color {
	return Color{
		R: uint8(float64(a.R) + (float64(b.R)-float64(a.R))*f),
		G: uint8(float64(a.G) + (float64(b.G)-float64(a.G))*f),
		B: uint8(float64(a.B) + (float64(b.B)-float64(a.B))*f),
	}
}

func clamp01(t float64) float64 {
	if t < 0 || math.IsNaN(t) {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func sign(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}
