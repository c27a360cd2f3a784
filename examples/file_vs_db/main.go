// File vs DB: the paper's first demo scenario (§4.1). The same clip queries
// run against (a) the file-based workflow — header pruning, then lasindex
// partial reads after a lassort+lasindex ETL pass — and (b) the column
// store's imprints + regular-grid filter–refine pipeline. The functional
// gap is shown too: the ad-hoc thematic query only the DBMS can express.
//
// Run with:
//
//	go run ./examples/file_vs_db
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"gisnav/internal/bench"
	"gisnav/internal/dataset"
	"gisnav/internal/engine"
	"gisnav/internal/geom"
	"gisnav/internal/grid"
	"gisnav/internal/lastools"
	"gisnav/internal/sfc"
	"gisnav/internal/sql"
)

func main() {
	dir, err := os.MkdirTemp("", "gisnav-filevsdb-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	if _, err := dataset.Generate(dir, dataset.Params{
		Region: geom.NewEnvelope(0, 0, 1500, 1500),
		TilesX: 3, TilesY: 3,
		Density: 0.1,
		UACells: 16,
		Seed:    3,
	}); err != nil {
		log.Fatal(err)
	}

	// --- file-based side: ETL (lassort + lasindex), then clip ------------
	repo, err := dataset.Repo(dir)
	if err != nil {
		log.Fatal(err)
	}
	etl := bench.Measure(func() {
		for _, f := range repo.Files() {
			if err := lastools.SortFile(f, sfc.Hilbert); err != nil {
				log.Fatal(err)
			}
			if err := lastools.IndexFile(f, 4096); err != nil {
				log.Fatal(err)
			}
		}
	})
	if err := repo.ScanMetadata(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("file-based ETL (lassort + lasindex over %d tiles): %s\n",
		len(repo.Files()), etl.Round(time.Millisecond))

	// --- DBMS side: binary bulk load -------------------------------------
	db, st, err := dataset.Load(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DBMS binary bulk load: %s (%s)\n\n",
		st.Total().Round(time.Millisecond), bench.Throughput(st.Points, st.Total()))

	pc, err := db.PointCloud(dataset.TableCloud)
	if err != nil {
		log.Fatal(err)
	}
	pc.EnsureImprints()

	// --- performance comparison: clip queries -----------------------------
	tbl := bench.NewTable("clip performance (mean of 5 runs)",
		"query box", "file-based (lasindex)", "column store", "matches")
	for _, box := range []geom.Envelope{
		geom.NewEnvelope(100, 100, 200, 200),
		geom.NewEnvelope(300, 300, 700, 700),
		geom.NewEnvelope(0, 0, 1200, 600),
	} {
		var fileMatches int
		dFile := bench.MeasureN(5, func() {
			pts, _, err := repo.ClipBox(box)
			if err != nil {
				log.Fatal(err)
			}
			fileMatches = len(pts)
		})
		var dbMatches int
		dDB := bench.MeasureN(5, func() {
			rows := pc.SelectRegionRows(grid.GeometryRegion{G: box.ToPolygon()})
			dbMatches = len(rows)
			engine.RecycleRows(rows)
		})
		if fileMatches != dbMatches {
			log.Fatalf("result mismatch: file %d vs db %d", fileMatches, dbMatches)
		}
		tbl.AddRow(box.String(), dFile, dDB, dbMatches)
	}
	tbl.WriteTo(os.Stdout)

	// --- functional comparison --------------------------------------------
	fmt.Println("\nfunctional comparison:")
	fmt.Println("  file-based: clip by box/polygon over ONE dataset at a time")
	fmt.Println("  DBMS:       ad-hoc SQL over LIDAR + OSM + UA together, e.g.:")
	exec := sql.New(db)
	q := `SELECT count(*) AS ground_near_rivers
	      FROM ahn2, osm
	      WHERE osm.class = 'river'
	        AND ST_DWithin(osm.geom, ST_Point(ahn2.x, ahn2.y), 40)
	        AND classification = 2`
	res, err := exec.QueryContext(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n  ground returns within 40 m of a river: %s\n", res.Rows()[0][0])
	fmt.Println("  (no LAStools pipeline expresses this without custom code)")
}
