// Urban analysis: the paper's second demo scenario (§4.2). A spatially
// enabled DBMS lets analysts combine the LIDAR cloud with the Urban Atlas
// land-use coverage and the OSM road network in ad-hoc declarative queries:
//
//   - "select all LIDAR points that are near an area characterised as a
//     fast transit road according to the Urban Atlas nomenclature"
//   - "compute the average elevation of those points"
//   - noise-wall screening: points 3-8 m above ground near motorways
//   - densely populated zones and the buildings inside them
//
// Run with:
//
//	go run ./examples/urban_analysis
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"gisnav/internal/dataset"
	"gisnav/internal/geom"
	"gisnav/internal/sql"
)

func main() {
	dir, err := os.MkdirTemp("", "gisnav-urban-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	if _, err := dataset.Generate(dir, dataset.Params{
		Region: geom.NewEnvelope(0, 0, 2000, 2000),
		TilesX: 2, TilesY: 2,
		Density: 0.1,
		UACells: 32,
		Seed:    7,
	}); err != nil {
		log.Fatal(err)
	}
	db, _, err := dataset.Load(dir)
	if err != nil {
		log.Fatal(err)
	}
	exec := sql.New(db)
	ctx := context.Background()

	queries := []struct {
		title string
		sql   string
	}{
		{
			"points near fast-transit land (UA code 12210)",
			`SELECT count(*) AS points
			 FROM ahn2, ua
			 WHERE ua.class = '12210'
			   AND ST_DWithin(ua.geom, ST_Point(ahn2.x, ahn2.y), 25)`,
		},
		{
			"average elevation of those points",
			`SELECT avg(z) AS mean_elevation, min(z) AS lowest, max(z) AS highest
			 FROM ahn2, ua
			 WHERE ua.class = '12210'
			   AND ST_DWithin(ua.geom, ST_Point(ahn2.x, ahn2.y), 25)`,
		},
		{
			"vegetation returns near fast-transit land (noise screening)",
			`SELECT count(*) AS veg_points
			 FROM ahn2, ua
			 WHERE ua.class = '12210'
			   AND ST_DWithin(ua.geom, ST_Point(ahn2.x, ahn2.y), 25)
			   AND classification = 5`,
		},
		{
			"how much land is fast-transit, by zone count and area",
			`SELECT count(*) AS zones, sum(ST_Area(geom)) AS total_area
			 FROM ua WHERE class = '12210'`,
		},
		{
			"the five densest land-use zones",
			`SELECT name, pop_density
			 FROM ua ORDER BY pop_density DESC LIMIT 5`,
		},
		{
			"points inside continuous urban fabric higher than 20 m (towers)",
			`SELECT count(*) AS tower_points
			 FROM ahn2, ua
			 WHERE ua.class = '11100'
			   AND ST_Contains(ua.geom, ST_Point(ahn2.x, ahn2.y))
			   AND z > 20`,
		},
		{
			"per-class breakdown of a viewport (the navigation histogram)",
			`SELECT classification, count(*) AS points, avg(z) AS mean_z
			 FROM ahn2
			 WHERE ST_Contains(ST_MakeEnvelope(400, 400, 1400, 1400), ST_Point(x, y))
			 GROUP BY classification`,
		},
		{
			"zone count and mean density per land-use class",
			`SELECT class, count(*) AS zones, avg(pop_density) AS density
			 FROM ua GROUP BY class ORDER BY zones DESC LIMIT 5`,
		},
	}

	for i, q := range queries {
		fmt.Printf("-- Q%d: %s\n", i+1, q.title)
		res, err := exec.QueryContext(ctx, q.sql)
		if err != nil {
			log.Fatalf("Q%d: %v", i+1, err)
		}
		for _, row := range res.Rows() {
			for j, col := range res.Columns {
				if j > 0 {
					fmt.Print("  ")
				}
				fmt.Printf("%s=%s", col, row[j])
			}
			fmt.Println()
		}
		fmt.Println()
	}

	// The per-operator trace of the headline query — what the demo lets the
	// audience inspect.
	res, err := exec.QueryContext(ctx, queries[1].sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- per-operator execution trace of Q2:")
	fmt.Print(res.Explain.String())

	// Panning the viewport histogram: the same GROUP BY statement with a
	// slid bbox goes through Executor.QueryContext, so the second step is a
	// shape-cache hit that re-binds the cached grouped plan instead of
	// re-planning — the trace's leading "plan" step says "rebound" and the
	// "group" step reports the vectorized strategy (dense: the class column
	// is a u8 key served by array-indexed accumulator banks).
	fmt.Println()
	fmt.Println("-- panning the viewport histogram (cached grouped plan):")
	pan := `SELECT classification, count(*) AS points, avg(z) AS mean_z
	        FROM ahn2
	        WHERE ST_Contains(ST_MakeEnvelope(600, 500, 1600, 1500), ST_Point(x, y))
	        GROUP BY classification`
	res, err = exec.QueryContext(ctx, pan)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range res.Explain.Steps {
		if s.Op == "plan" || s.Op == "group" {
			fmt.Printf("  %-6s %s\n", s.Op, s.Detail)
		}
	}
	st := exec.StmtCacheStats()
	fmt.Printf("  stmt cache: %d shapes, %d hits (%d shape hits, %d rebinds, %d front hits)\n",
		st.Entries, st.Hits, st.ShapeHits, st.Rebinds, st.FrontHits)
}
