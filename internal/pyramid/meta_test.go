package pyramid

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"gisnav/internal/engine"
	"gisnav/internal/las"
	"gisnav/internal/morsel"
)

// refExtendMeta is the row-at-a-time reference for the base level's tile
// metadata: rows [from, n) quantise through the base grid one at a time
// into per-tile row counts, NaN-coordinate counts and tight data bounding
// boxes (strict compares from the ±Inf seeds), then merge into the
// postings — each tile's old postings move up by the rows the tiles
// before it gained, and its new rows follow them in ascending order.
func refExtendMeta(p *Pyramid, from, n int) {
	bl := &p.levels[p.base]
	order := bl.grid.Order
	xs, ys := p.pc.X(), p.pc.Y()
	tiles := make([]int, n-from)
	next := make([]int, len(bl.tiles)) // rows gained per tile, then insert slots
	for i := range tiles {
		x, y := xs[from+i], ys[from+i]
		cx, cy := bl.grid.Cell(x, y)
		t := int(cy)<<order | int(cx)
		tiles[i] = t
		next[t]++
		b := &bl.tiles[t]
		b.Rows++
		if math.IsNaN(x) || math.IsNaN(y) {
			b.NaN++
		}
		if x < b.Box.MinX {
			b.Box.MinX = x
		}
		if x > b.Box.MaxX {
			b.Box.MaxX = x
		}
		if y < b.Box.MinY {
			b.Box.MinY = y
		}
		if y > b.Box.MaxY {
			b.Box.MaxY = y
		}
	}
	rows := make([]int, n)
	copy(rows, p.rows)
	p.rows = rows
	shift := n - from
	for t := len(next) - 1; t >= 0; t-- {
		gained := next[t]
		shift -= gained
		lo, hi := p.offs[t], p.offs[t+1]
		copy(p.rows[lo+shift:], p.rows[lo:hi])
		p.offs[t+1] = hi + shift + gained
		next[t] = hi + shift
	}
	for i, t := range tiles {
		p.rows[next[t]] = from + i
		next[t]++
	}
}

// sameMeta requires got's base tile row counts, data boxes and postings
// to equal want's bit for bit.
func sameMeta(t *testing.T, label string, got, want *Pyramid) {
	t.Helper()
	g, w := &got.levels[got.base], &want.levels[want.base]
	if got.base != want.base {
		t.Fatalf("%s: base order %d, reference %d", label, got.base, want.base)
	}
	sameTiles(t, label, g.tiles, w.tiles)
	if !slices.Equal(got.offs, want.offs) || !slices.Equal(got.rows, want.rows) {
		t.Fatalf("%s: postings differ from the reference", label)
	}
}

// refPyramid is the reference metadata over pc's rows, taken in two
// calls split at m as an extension takes them.
func refPyramid(t *testing.T, pc *engine.PointCloud, m int) *Pyramid {
	t.Helper()
	r := newPyramid(pc, pc.Epoch(), engine.ColClassification, testSpecs())
	refExtendMeta(r, 0, m)
	refExtendMeta(r, m, pc.Len())
	return r
}

// metaPoints returns n points over [-512, 512]² built to break the fused
// tile metadata. Each row of seams is a position at which a partition
// cut may fall; the adversarial rows sit on both sides of every one:
//   - −0 and +0 in one tile, in both orders, as the only x (or y) values
//     of that tile, so they are its minimum and its maximum;
//   - NaN x, NaN y and both (Cell clamps them into the last tile);
//   - rows on the extent's max edges;
//
// and a hole of 3×3 base tiles next to the origin leaves tiles empty.
func metaPoints(rng *rand.Rand, n int, seams []int) []las.Point {
	w := 1024 / float64(uint64(1)<<baseOrderFor(n)) // base tile edge
	negz, nan := math.Copysign(0, -1), math.NaN()
	pts := make([]las.Point, n)
	for i := range pts {
		x, y := rng.Float64()*1024-512, rng.Float64()*1024-512
		for x >= 0 && x < 3*w && y >= 0 && y < 3*w {
			x, y = rng.Float64()*1024-512, rng.Float64()*1024-512
		}
		pts[i] = las.Point{X: x, Y: y, Z: rng.Float64()*100 - 20, Classification: uint8(rng.Intn(9))}
	}
	// The extent's corners, first, so every prefix has the whole extent.
	pts[0].X, pts[0].Y, pts[1].X, pts[1].Y = -512, -512, 512, 512
	// Adversarial pairs: the second row of each follows its first.
	pairs := [][2][2]float64{
		{{negz, 1.5 * w}, {0, 1.5 * w}}, // x: −0 then +0, alone in their tile
		{{0, 2.5 * w}, {negz, 2.5 * w}}, // x: +0 then −0
		{{1.5 * w, negz}, {1.5 * w, 0}}, // y: −0 then +0
		{{2.5 * w, 0}, {2.5 * w, negz}}, // y: +0 then −0
		{{nan, 100}, {100, nan}},
		{{nan, nan}, {512, -300}},
		{{-200, 512}, {512, 512}},
	}
	place := func(r int, c [2]float64) { pts[r].X, pts[r].Y = c[0], c[1] }
	for k, s := range seams {
		if s < 3 || s >= n {
			continue
		}
		pr := pairs[k%len(pairs)]
		place(s-1, pr[0]) // straddling the seam
		place(s, pr[1])
		if s+3 < n {
			pr = pairs[(k+3)%len(pairs)]
			place(s+2, pr[0]) // both on one side of it
			place(s+3, pr[1])
		}
	}
	return pts
}

// cuts returns where a pass over rows [from, n) at degree deg cuts them.
func cuts(from, n, deg int) []int {
	var out []int
	for k := 1; k < deg; k++ {
		out = append(out, from+k*(n-from)/deg)
	}
	return out
}

// TestPyramidMetaMatchesReference builds the pyramid over metaPoints at
// run caps 1, 2 and Workers()+3, in one build over all rows and as a build
// over a prefix extended to all rows, and holds the base tile totals, data
// boxes and postings to the row-at-a-time reference bit for bit, and the
// extended pyramid to the one-shot build. The table holds enough rows
// that every cap up to 7 is the degree the build and the extension run at.
func TestPyramidMetaMatchesReference(t *testing.T) {
	caps := []int{1, 2, morsel.Workers() + 3}
	rows := 1 << 16 // the engine's minimum rows per partition
	ext := min(morsel.Workers()+3, 7) * rows
	n, m := 2*ext+4321, ext+4321
	if baseOrderFor(m) != baseOrderFor(n) {
		t.Fatalf("split %d of %d changes the base order", m, n)
	}
	var seams []int
	for d := 2; d <= caps[2]; d++ {
		seams = append(seams, cuts(0, n, d)...)
		seams = append(seams, cuts(m, n, d)...)
	}
	seams = append(seams, m)
	sort.Ints(seams)
	pts := metaPoints(rand.New(rand.NewSource(3)), n, seams)

	pc := engine.NewPointCloud()
	pc.AppendLAS(pts[:m])
	prefix := make([]*Pyramid, len(caps))
	for i, c := range caps {
		prefix[i] = newPyramid(pc, pc.Epoch(), engine.ColClassification, testSpecs())
		run := new(engine.Run)
		run.SetMaxParallel(c)
		if err := prefix[i].build(run, nil); err != nil {
			t.Fatal(err)
		}
	}
	pc.AppendLAS(pts[m:])
	want := refPyramid(t, pc, m)
	if want.ext != prefix[0].ext {
		t.Fatalf("extent %v after the append, %v before", want.ext, prefix[0].ext)
	}
	for i, c := range caps {
		run := new(engine.Run)
		run.SetMaxParallel(c)
		whole := newPyramid(pc, pc.Epoch(), engine.ColClassification, testSpecs())
		var ex engine.Explain
		if err := whole.build(run, &ex); err != nil {
			t.Fatal(err)
		}
		if err := prefix[i].extend(run, pc.Epoch(), nil); err != nil {
			t.Fatal(err)
		}
		if d := ex.Steps[0].Detail; !strings.HasSuffix(d, fmt.Sprintf("[par %d]", min(c, n/rows))) {
			t.Fatalf("cap %d: the build ran as %q", c, d)
		}
		sameMeta(t, fmt.Sprintf("build at cap %d", c), whole, want)
		sameMeta(t, fmt.Sprintf("extension at cap %d", c), prefix[i], want)
		samePyramid(t, "extension against the build", prefix[i], whole)
		run.Drain()
	}
}

// FuzzPyramidBuild builds pyramids over fuzzed coordinate bits: over rows
// [0, m) and then extended to n when the append may extend (extendable),
// and in one build over n, at a fuzzed run cap. The extension must equal
// the one-shot build in everything samePyramid compares, and both must
// match the row-at-a-time reference metadata. The low three bits of
// shape are the run cap (0: the table's default); when its top four bits
// are all set, the fuzzed rows repeat past two morsels' worth, so the cap
// is the degree the scatter runs at. A wide table is rare by design: it
// costs a hundred narrow ones.
func FuzzPyramidBuild(f *testing.F) {
	coords := func(v ...float64) []byte {
		var b []byte
		for _, c := range v {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c))
		}
		return b
	}
	negz := math.Copysign(0, -1)
	f.Add(coords(0, 0, 10, 10, 5, 5, negz, 3, 0, 3, 10, 1), uint16(3), uint8(2))
	f.Add(coords(0, 0, 10, 10, math.NaN(), 4, 4, math.NaN(), 0, 7, negz, 7, 10, 10), uint16(20000), uint8(0xf3))
	f.Add(coords(-1, -1, 1, 1, 1, -1, -1, 1, 0, 0), uint16(65535), uint8(0xf0))
	f.Add(coords(1, 1, 1, 2), uint16(1), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, split uint16, shape uint8) {
		k := min(len(raw)/16, 256)
		if k == 0 {
			return
		}
		n := k
		if shape&0xf0 == 0xf0 {
			n = 2<<16 + k
		}
		pts := make([]las.Point, n)
		for i := range pts {
			j := i % k
			pts[i] = las.Point{
				X:              math.Float64frombits(binary.LittleEndian.Uint64(raw[16*j:])),
				Y:              math.Float64frombits(binary.LittleEndian.Uint64(raw[16*j+8:])),
				Z:              float64(i % 97),
				Classification: uint8(i % 11),
			}
		}
		m := int(split) * n / math.MaxUint16
		specs := testSpecs()
		newRun := func() *engine.Run {
			run := new(engine.Run)
			run.SetMaxParallel(int(shape & 7))
			return run
		}

		pc := engine.NewPointCloud()
		pc.AppendLAS(pts[:m])
		var prefix *Pyramid
		if p := newPyramid(pc, pc.Epoch(), engine.ColClassification, specs); p != nil {
			run := newRun()
			if err := p.build(run, nil); err != nil {
				t.Fatal(err)
			}
			run.Drain()
			prefix = p
		}
		pc.AppendLAS(pts[m:])
		whole := newPyramid(pc, pc.Epoch(), engine.ColClassification, specs)
		if whole == nil {
			return // no finite, non-degenerate extent: the pyramid declines
		}
		run := newRun()
		defer run.Drain()
		if err := whole.build(run, nil); err != nil {
			t.Fatal(err)
		}
		sameMeta(t, "build", whole, refPyramid(t, pc, m))
		if prefix != nil && prefix.extendable() {
			if err := prefix.extend(run, pc.Epoch(), nil); err != nil {
				t.Fatal(err)
			}
			samePyramid(t, "extension against the build", prefix, whole)
		}
	})
}

// TestPyramidConcurrentBuilds builds pyramids over two tables from four
// goroutines at once, each scatter fanned out to two partitions, and holds
// every one to a build made alone: the passes share the engine's pooled
// scaffolding, and each must merge only its own partitions. Run under
// -race this also catches a pass reading scaffolding another has taken.
func TestPyramidConcurrentBuilds(t *testing.T) {
	specs := testSpecs()
	clouds := []*engine.PointCloud{testCloud(2<<16+999, 71), testCloud(2<<16+17, 72)}
	want := make([]*Pyramid, len(clouds))
	for i, pc := range clouds {
		want[i] = freshPyramid(t, pc, specs)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				i := (g + k) % len(clouds)
				p := newPyramid(clouds[i], clouds[i].Epoch(), engine.ColClassification, specs)
				run := new(engine.Run)
				run.SetMaxParallel(2)
				if err := p.build(run, nil); err != nil {
					t.Error(err)
					return
				}
				run.Drain()
				if !reflect.DeepEqual(p.levels, want[i].levels) || !slices.Equal(p.offs, want[i].offs) || !slices.Equal(p.rows, want[i].rows) {
					t.Errorf("goroutine %d, table %d: a concurrent build differs from the one built alone", g, i)
				}
			}
		}()
	}
	wg.Wait()
}
