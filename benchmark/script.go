package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"gisnav/internal/geom"
)

// Statement shapes. Every step of a script is one of these with its own
// literals; the server sees only the generated text.
type shape int

const (
	shapeBBox shape = iota
	shapeHist
	shapeFetch
	shapeThematic
)

// fetchLimit is the LIMIT of the pan.fetch statement: ~100 KB of JSON.
const fetchLimit = 2000

// groundClass is the thematic literal of the pan.bbox statement (LAS class
// 2, ground — the most frequent class of the synthetic terrain).
const groundClass = 2

// step is one navigation step: the statement text plus the literals the
// oracle and the layer replay need without re-parsing it.
type step struct {
	shape    shape
	view     geom.Envelope // pan.* viewport
	zlo, zhi float64       // scan.thematic window
	sql      string
	body     []byte // the POST /query JSON body, encoded once
}

func (s *step) render() {
	v := s.view
	env := fmt.Sprintf("ST_Contains(ST_MakeEnvelope(%.3f, %.3f, %.3f, %.3f), ST_Point(x, y))",
		v.MinX, v.MinY, v.MaxX, v.MaxY)
	switch s.shape {
	case shapeBBox:
		s.sql = fmt.Sprintf("SELECT count(*), avg(z) FROM ahn2 WHERE %s AND classification = %d", env, groundClass)
	case shapeHist:
		s.sql = "SELECT classification, count(*), min(z), max(z) FROM ahn2 WHERE " + env + " GROUP BY classification"
	case shapeFetch:
		s.sql = fmt.Sprintf("SELECT x, y, z, classification, intensity FROM ahn2 WHERE %s LIMIT %d", env, fetchLimit)
	case shapeThematic:
		s.sql = fmt.Sprintf("SELECT classification, count(*), avg(z) FROM ahn2 WHERE z BETWEEN %.3f AND %.3f GROUP BY classification",
			s.zlo, s.zhi)
	}
	// The statements hold no character JSON must escape.
	s.body = []byte(`{"sql":"` + s.sql + `"}`)
}

// The walk. A viewer pans most of the time, zooms now and then, and
// sometimes steps back to where they just were. The step kinds follow a
// fixed ten-step pattern (7 pans, 2 zooms, 1 back) and the zooms climb and
// descend a fixed ladder of viewport areas, so every seed visits the same
// multiset of viewport sizes — the seed decides where the walk goes, not
// how much work it is. Without that, two seeds are two different workloads
// and their medians cannot be compared (a free random walk over zoom level
// has a spread of tens of percent between seeds).
const (
	walkLevels = 13 // ladder rungs; neighbouring rungs differ by sqrt(2) in area
	minAreaFrc = 0.0025
	maxAreaFrc = 0.16
	aspect     = 1.6 // viewport width / height
	// walkLen is eight full up-and-down sweeps of the ladder: one sweep is
	// 2*(walkLevels-1) zooms, five steps per zoom. 864 of its 960 texts are
	// distinct — more than the 512-entry front cache holds, so a fresh
	// viewport never finds its text interned, while a back step does.
	walkLen = 8 * 2 * (walkLevels - 1) * 5
)

type stepKind byte

const (
	kindPan stepKind = iota
	kindZoom
	kindBack
)

var walkPattern = [10]stepKind{kindPan, kindPan, kindZoom, kindPan, kindPan, kindBack, kindPan, kindPan, kindZoom, kindPan}

// snap moves a coordinate onto the x.xx5 lattice: LAS coordinates are whole
// centimetres, so a viewport edge there can never coincide with a point and
// the inclusive/exclusive reading of "contains" cannot change an answer.
func snap(v float64) float64 { return math.Floor(v*100)/100 + 0.005 }

// viewAt builds the viewport of area fraction frc centred on (cx, cy),
// shifted back inside the extent where it would stick out.
func viewAt(ext geom.Envelope, cx, cy, frc float64) geom.Envelope {
	w := math.Sqrt(frc * ext.Area() * aspect)
	h := w / aspect
	// The centimetre of slack keeps the snapped far edge inside too.
	x0 := math.Min(math.Max(cx-w/2, ext.MinX), ext.MaxX-w-0.01)
	y0 := math.Min(math.Max(cy-h/2, ext.MinY), ext.MaxY-h-0.01)
	return geom.Envelope{MinX: snap(x0), MinY: snap(y0), MaxX: snap(x0 + w), MaxY: snap(y0 + h)}
}

// walk generates n viewports over ext from seed.
func walk(seed uint64, ext geom.Envelope, n int) []geom.Envelope {
	rng := rand.New(rand.NewPCG(seed, 0x6e6176)) // stream "nav"
	ratio := math.Pow(maxAreaFrc/minAreaFrc, 1/float64(walkLevels-1))
	// Position on the triangle wave 0..L-1..0; the seed picks the phase.
	period := 2 * (walkLevels - 1)
	phase := rng.IntN(period)
	level := func(z int) int {
		p := (phase + z) % period
		if p >= walkLevels {
			p = period - p
		}
		return p
	}
	zooms := 0
	frc := minAreaFrc * math.Pow(ratio, float64(level(0)))
	cx := ext.MinX + ext.Width()*(0.2+0.6*rng.Float64())
	cy := ext.MinY + ext.Height()*(0.2+0.6*rng.Float64())
	views := append(make([]geom.Envelope, 0, n), viewAt(ext, cx, cy, frc))
	for i := 1; i < n; i++ {
		kind := walkPattern[i%len(walkPattern)]
		if kind == kindBack && i >= 2 {
			views = append(views, views[i-2])
			continue
		}
		cur := views[i-1]
		c := cur.Center() // of the clamped viewport, so the walk turns at the edges
		if kind == kindZoom {
			zooms++
			frc = minAreaFrc * math.Pow(ratio, float64(level(zooms)))
		} else {
			// Pan by 10-50% of the viewport in a random direction.
			ang := 2 * math.Pi * rng.Float64()
			d := 0.1 + 0.4*rng.Float64()
			c.X += d * cur.Width() * math.Cos(ang)
			c.Y += d * cur.Height() * math.Sin(ang)
		}
		views = append(views, viewAt(ext, c.X, c.Y, frc))
	}
	return views
}

// panScript renders the walk as statements; shapes[i%len(shapes)] is step
// i's shape. A back step copies the step two earlier whole, so its text is
// byte-identical whatever the shape cycle.
func panScript(seed uint64, ext geom.Envelope, n int, shapes ...shape) []step {
	views := walk(seed, ext, n)
	steps := make([]step, n)
	for i, v := range views {
		if i >= 2 && walkPattern[i%len(walkPattern)] == kindBack {
			steps[i] = steps[i-2]
			continue
		}
		steps[i] = step{shape: shapes[i%len(shapes)], view: v}
		steps[i].render()
	}
	return steps
}

// Thematic windows: n BETWEEN windows over z whose selectivity sweeps
// linearly from 1% to 75% of the rows, each placed at a seeded quantile and
// the list shuffled by the seed — every seed scans the same selectivities.
const (
	thematicWindows = 512
	minSelectivity  = 0.01
	maxSelectivity  = 0.75
)

// thematicScript draws the windows from a sorted sample of the z column.
func thematicScript(seed uint64, zs []float64, n int) []step {
	const stride = 61
	sample := make([]float64, 0, len(zs)/stride+1)
	for i := 0; i < len(zs); i += stride {
		sample = append(sample, zs[i])
	}
	sort.Float64s(sample)
	quantile := func(q float64) float64 { return sample[int(q*float64(len(sample)-1))] }

	rng := rand.New(rand.NewPCG(seed, 0x7a77696e)) // stream "zwin"
	steps := make([]step, n)
	for k := range steps {
		sel := minSelectivity
		if n > 1 {
			sel += (maxSelectivity - minSelectivity) * float64(k) / float64(n-1)
		}
		q0 := (1 - sel) * rng.Float64()
		// Window edges sit between centimetres, like the viewport edges.
		steps[k] = step{shape: shapeThematic, zlo: snap(quantile(q0)), zhi: snap(quantile(q0 + sel))}
		steps[k].render()
	}
	rng.Shuffle(n, func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	return steps
}
