// Quickstart: generate a small synthetic LIDAR dataset in a temp directory,
// bulk-load it into the spatially-enabled column store, and run a spatial
// selection both through the engine API and through SQL.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"gisnav/internal/dataset"
	"gisnav/internal/engine"
	"gisnav/internal/geom"
	"gisnav/internal/grid"
	"gisnav/internal/sql"
)

func main() {
	dir, err := os.MkdirTemp("", "gisnav-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Generate the demo datasets: LIDAR tiles + OSM-like + UA-like vectors.
	info, err := dataset.Generate(dir, dataset.Params{
		Region: geom.NewEnvelope(0, 0, 1000, 1000),
		TilesX: 2, TilesY: 2,
		Density: 0.2, // 0.2 pts/m² → ~200k points
		UACells: 16,
		Seed:    1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d LIDAR points, %d OSM features, %d UA zones\n",
		info.Points, info.OSM, info.UA)

	// 2. Bulk-load through the binary COPY path (paper §3.2).
	db, st, err := dataset.Load(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded in %s (%.0f points/s)\n",
		st.Total().Round(time.Millisecond), st.PointsPerSecond())

	// 3. Engine API: filter-refine spatial selection (paper §3.3).
	pc, err := db.PointCloud(dataset.TableCloud)
	if err != nil {
		log.Fatal(err)
	}
	box := geom.NewEnvelope(200, 200, 450, 400)
	var ex engine.Explain
	rows := pc.SelectRegionRowsRun(nil, grid.GeometryRegion{G: box.ToPolygon()}, -1, &ex)
	fmt.Printf("\npoints in %s: %d\n", box, len(rows))
	engine.RecycleRows(rows)
	fmt.Println("operator trace of the first query (imprints build included):")
	fmt.Print(ex.String())

	// 4. The same through SQL, plus an aggregate.
	exec := sql.New(db)
	ctx := context.Background()
	res, err := exec.QueryContext(ctx, `
		SELECT count(*) AS n, avg(z) AS mean_z, max(z) AS max_z
		FROM ahn2
		WHERE ST_Contains(ST_MakeEnvelope(200, 200, 450, 400), ST_Point(x, y))`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSQL: n=%s mean_z=%s max_z=%s\n",
		res.Cols[0].Value(0), res.Cols[1].Value(0), res.Cols[2].Value(0))

	// 5. A thematic + spatial combination: buildings only.
	res2, err := exec.QueryContext(ctx, `
		SELECT count(*) FROM ahn2
		WHERE ST_Contains(ST_MakeEnvelope(200, 200, 450, 400), ST_Point(x, y))
		  AND classification = 6`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("of which building returns: %s\n", res2.Rows()[0][0])

	// 6. Imprint statistics — the secondary index the paper champions.
	sx, sy := pc.ImprintStats()
	fmt.Printf("\nimprints: x %.1f%% overhead %.0fx compression, y %.1f%% overhead %.0fx compression\n",
		sx.OverheadPercent, sx.CompressionRatio, sy.OverheadPercent, sy.CompressionRatio)
}
