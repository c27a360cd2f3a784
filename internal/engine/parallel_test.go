package engine

import (
	"testing"

	"gisnav/internal/geom"
	"gisnav/internal/grid"
)

func TestParallelSelectionMatchesSerial(t *testing.T) {
	pc, _ := buildCloud(t, 0.2) // enough rows to cross the parallel threshold
	poly := geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
		{X: 100, Y: 200}, {X: 800, Y: 150}, {X: 900, Y: 800}, {X: 300, Y: 950},
	}}}
	road := geom.LineString{Points: []geom.Point{{X: 0, Y: 480}, {X: 1000, Y: 520}}}
	for _, region := range []grid.Region{
		boxRegion(geom.NewEnvelope(100, 100, 900, 900)),
		grid.GeometryRegion{G: poly},
		grid.BufferRegion{G: road, D: 50},
	} {
		serial := pc.SelectRegionRows(region)
		pc.Parallel = true
		parallel := pc.SelectRegionRows(region)
		pc.Parallel = false
		if len(serial) == 0 || !equalRows(serial, parallel) {
			t.Fatalf("%v: serial %d rows, parallel %d rows", region, len(serial), len(parallel))
		}
	}
}
