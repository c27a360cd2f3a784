package engine

import (
	"math"
	"strings"
	"testing"

	"gisnav/internal/geom"
	"gisnav/internal/grid"
	"gisnav/internal/las"
)

// TestSelectLimitIsUnboundedPrefix: a bounded selection returns exactly the
// first k rows of the unbounded one — whatever the region's shape, the
// limit, the degree, or NaN coordinates in the table — and leaves its run
// owning nothing but the vector it returned.
func TestSelectLimitIsUnboundedPrefix(t *testing.T) {
	poly := geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
		{X: 200, Y: 300}, {X: 750, Y: 250}, {X: 900, Y: 700}, {X: 350, Y: 900},
	}}}
	road := geom.LineString{Points: []geom.Point{{X: 0, Y: 500}, {X: 1000, Y: 520}}}
	regions := map[string]grid.Region{
		"rect":    boxRegion(geom.NewEnvelope(100, 150, 820, 700)),
		"polygon": grid.GeometryRegion{G: poly},
		"buffer":  grid.BufferRegion{G: road, D: 60},
	}

	tiled, _ := buildCloud(t, 0.2)
	shuffled := groupTestCloud(t, morselCloudRows)
	for _, pc := range []*PointCloud{tiled, shuffled} {
		xs, ys := pc.X(), pc.Y()
		for i := 5; i < pc.Len(); i += 331 {
			switch i % 3 {
			case 0:
				xs[i] = math.NaN()
			case 1:
				ys[i] = math.NaN()
			default:
				xs[i], ys[i] = math.NaN(), math.NaN()
			}
		}
	}
	single := NewPointCloud()
	single.AppendLAS([]las.Point{{X: 500, Y: 500}})
	tables := map[string]*PointCloud{
		"tiled": tiled, "shuffled": shuffled, "single-row": single, "empty": NewPointCloud(),
	}

	for tname, pc := range tables {
		for rname, region := range regions {
			for _, deg := range []int{1, 4} {
				run := parRun(deg)
				all := pc.SelectRegionRowsRun(run, region, -1, nil)
				if want := scanRegion(pc, region); !equalRows(all, want) {
					t.Fatalf("%s %s cap %d: unbounded %d rows, exhaustive %d", tname, rname, deg, len(all), len(want))
				}
				m := len(all)
				for _, k := range []int{0, 1, 7, m / 3, m, m + 1, 10*m + 10} {
					got := pc.SelectRegionRowsRun(run, region, k, nil)
					if want := all[:min(k, m)]; !equalRows(got, want) {
						t.Fatalf("%s %s cap %d limit %d: %d rows, want the unbounded prefix of %d",
							tname, rname, deg, k, len(got), len(want))
					}
					run.RecycleRows(got)
				}
				run.RecycleRows(all)
				if run.Live() != 0 {
					t.Fatalf("%s %s cap %d: select run still owns %d buffers", tname, rname, deg, run.Live())
				}
			}
		}
	}
}

// TestSelectLimitStopsEarly: on a tiled table a small limit opens a few
// zones and refines a few candidate rows where the unbounded selection
// walks the whole viewport, and both EXPLAIN steps name the limit and the
// rounds it took.
func TestSelectLimitStopsEarly(t *testing.T) {
	pc, _ := buildCloud(t, 0.2)
	region := boxRegion(geom.NewEnvelope(0, 0, 1000, 1000))
	trace := func(limit int) (rows int, filter, refine Step) {
		ex := &Explain{}
		got := pc.SelectRegionRowsRun(nil, region, limit, ex)
		defer RecycleRows(got)
		for _, s := range ex.Steps {
			switch s.Op {
			case opImprintsFilter:
				filter = s
			case opGridRefine:
				refine = s
			}
		}
		return len(got), filter, refine
	}
	all, allFilter, _ := trace(-1)
	if all < 10000 {
		t.Fatalf("whole-extent selection matched %d rows; the comparison is vacuous", all)
	}
	if strings.Contains(allFilter.Detail, "limit") {
		t.Fatalf("unbounded imprints.filter detail %q names a limit", allFilter.Detail)
	}
	rows, filter, refine := trace(100)
	if rows != 100 {
		t.Fatalf("limit 100 returned %d rows", rows)
	}
	if filter.OutRows*10 > allFilter.OutRows || refine.InRows != filter.OutRows {
		t.Fatalf("limit 100 walked %d candidate rows and refined %d, the whole viewport %d",
			filter.OutRows, refine.InRows, allFilter.OutRows)
	}
	for _, s := range []Step{filter, refine} {
		if !strings.Contains(s.Detail, "limit 100 in ") || !strings.Contains(s.Detail, " round") {
			t.Fatalf("%s detail %q does not name the limit and its rounds", s.Op, s.Detail)
		}
	}
}
