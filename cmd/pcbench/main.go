// Command pcbench regenerates the paper's quantitative claims (the
// experiment index E1–E10 in DESIGN.md): bulk-loading throughput, storage
// footprints and imprint overhead, selection performance of the
// filter–refine pipeline against the file-based and block-based baselines,
// vector and ad-hoc multi-dataset queries, the per-operator EXPLAIN view,
// imprint anatomy, and the design-choice ablations. Figures 1 and 2 are
// regenerated by cmd/pcviz.
//
// Usage:
//
//	pcbench -e all -scale small
//	pcbench -e load,select -data existing-dataset-dir
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gisnav/internal/bench"
	"gisnav/internal/blockstore"
	"gisnav/internal/colstore"
	"gisnav/internal/dataset"
	"gisnav/internal/engine"
	"gisnav/internal/geom"
	"gisnav/internal/grid"
	"gisnav/internal/imprints"
	"gisnav/internal/las"
	"gisnav/internal/lastools"
	"gisnav/internal/sfc"
	"gisnav/internal/sql"
	"gisnav/internal/synth"
)

// benchEnv is everything the experiments share: the dataset on disk, the
// loaded column store, the baselines, and the raw point set.
type benchEnv struct {
	dir     string
	region  geom.Envelope
	db      *engine.DB
	pc      *engine.PointCloud
	osm     *engine.VectorTable
	ua      *engine.VectorTable
	repo    *lastools.Repository // raw tiles, metadata scanned
	repoIdx *lastools.Repository // sorted + indexed copy
	etlTime time.Duration        // lassort + lasindex cost
	store   *blockstore.Store
	points  []las.Point
	rng     *rand.Rand
	report  jsonReport
}

func main() {
	var (
		dir      = flag.String("data", "", "existing dataset dir (generated when empty)")
		exps     = flag.String("e", "all", "experiments: all or comma list of load,storage,select,vector,adhoc,explain,imprints,kernels,repeated,panzoom,grouped,cancel,parallel,serve,pyramid,ablation")
		scale    = flag.String("scale", "small", "generated dataset scale: small, medium, large")
		seed     = flag.Uint64("seed", 2015, "generator seed")
		repeats  = flag.Int("repeats", 3, "query repetitions per measurement")
		jsonPath = flag.String("json", "BENCH_filter.json", "machine-readable results file (empty disables)")
	)
	flag.Parse()

	env, err := setup(*dir, *scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcbench:", err)
		os.Exit(1)
	}
	env.report.Dataset.Points = env.pc.Len()
	env.report.Dataset.Scale = *scale
	env.report.Dataset.GOMAXPROCS = runtime.GOMAXPROCS(0)
	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	run := func(name string, fn func(*benchEnv, io.Writer, int)) {
		if all || want[name] {
			fn(env, os.Stdout, *repeats)
			fmt.Println()
		}
	}
	fmt.Printf("dataset: %d points, region %s, %d tiles\n\n",
		env.pc.Len(), env.region, len(env.repo.Files()))
	run("load", expLoad)
	run("storage", expStorage)
	run("select", expSelect)
	run("vector", expVector)
	run("adhoc", expAdhoc)
	run("explain", expExplain)
	run("imprints", expImprints)
	run("kernels", expKernels)
	run("repeated", expRepeated)
	run("panzoom", expPanZoom)
	run("grouped", expGrouped)
	run("cancel", expCancel)
	run("parallel", expParallel)
	run("serve", expServe)
	run("pyramid", expPyramid)
	run("ablation", expAblation)
	if *jsonPath != "" && len(env.report.Records) > 0 {
		if err := env.report.write(*jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, "pcbench: writing", *jsonPath, ":", err)
			os.Exit(1)
		}
		fmt.Printf("machine-readable results: %s (%d records)\n", *jsonPath, len(env.report.Records))
	}
}

// scaleParams maps a scale name to generation parameters.
func scaleParams(scale string, seed uint64) (dataset.Params, error) {
	switch scale {
	case "small":
		return dataset.Params{
			Region: geom.NewEnvelope(0, 0, 1500, 1500),
			TilesX: 3, TilesY: 3, Density: 0.08, UACells: 24, Seed: seed,
		}, nil
	case "medium":
		return dataset.Params{
			Region: geom.NewEnvelope(0, 0, 3000, 3000),
			TilesX: 4, TilesY: 4, Density: 0.1, UACells: 40, Seed: seed,
		}, nil
	case "large":
		return dataset.Params{
			Region: geom.NewEnvelope(0, 0, 6000, 6000),
			TilesX: 6, TilesY: 6, Density: 0.15, UACells: 60, Seed: seed,
		}, nil
	default:
		return dataset.Params{}, fmt.Errorf("unknown scale %q", scale)
	}
}

func setup(dir, scale string, seed uint64) (*benchEnv, error) {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "pcbench-*")
		if err != nil {
			return nil, err
		}
		p, err := scaleParams(scale, seed)
		if err != nil {
			return nil, err
		}
		info, err := dataset.Generate(tmp, p)
		if err != nil {
			return nil, err
		}
		fmt.Printf("generated %d points into %s\n", info.Points, tmp)
		dir = tmp
	}
	db, _, err := dataset.Load(dir)
	if err != nil {
		return nil, err
	}
	env := &benchEnv{dir: dir, db: db, rng: rand.New(rand.NewSource(42))}
	if env.pc, err = db.PointCloud(dataset.TableCloud); err != nil {
		return nil, err
	}
	if env.osm, err = db.Vector(dataset.TableOSM); err != nil {
		return nil, err
	}
	if env.ua, err = db.Vector(dataset.TableUA); err != nil {
		return nil, err
	}
	env.region = env.pc.Extent()

	if env.repo, err = dataset.Repo(dir); err != nil {
		return nil, err
	}
	if err := env.repo.ScanMetadata(); err != nil {
		return nil, err
	}

	// File-based ETL arm: copy the tiles, lassort + lasindex them.
	idxDir := filepath.Join(dir, "tiles-indexed")
	if err := os.MkdirAll(idxDir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	for _, f := range env.repo.Files() {
		dst := filepath.Join(idxDir, filepath.Base(f))
		if _, err := os.Stat(dst + ".lax"); err == nil {
			continue // already prepared on a previous run
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			return nil, err
		}
		if err := lastools.SortFile(dst, sfc.Hilbert); err != nil {
			return nil, err
		}
		if err := lastools.IndexFile(dst, 4096); err != nil {
			return nil, err
		}
	}
	env.etlTime = time.Since(start)
	if env.repoIdx, err = lastools.Open(idxDir); err != nil {
		return nil, err
	}
	if err := env.repoIdx.ScanMetadata(); err != nil {
		return nil, err
	}

	// Raw point set (for the block store and storage accounting).
	for _, f := range env.repo.Files() {
		_, pts, err := las.ReadAnyFile(f)
		if err != nil {
			return nil, err
		}
		env.points = append(env.points, pts...)
	}
	if env.store, err = blockstore.Build(env.points, blockstore.Options{}); err != nil {
		return nil, err
	}
	return env, nil
}

// --- E1: loading --------------------------------------------------------------

func expLoad(env *benchEnv, w io.Writer, _ int) {
	tbl := bench.NewTable("E1 load: binary COPY vs CSV vs baselines (§3.2)",
		"method", "points", "convert", "append", "total", "throughput")

	pcBin := engine.NewPointCloud()
	stBin, err := engine.LoadBinary(pcBin, env.repo)
	if err != nil {
		fmt.Fprintln(w, "load/binary:", err)
		return
	}
	tbl.AddRow("flat table, binary loader", stBin.Points, stBin.ConvertTime, stBin.AppendTime,
		stBin.Total(), bench.Throughput(stBin.Points, stBin.Total()))

	pcCSV := engine.NewPointCloud()
	stCSV, err := engine.LoadCSV(pcCSV, env.repo)
	if err != nil {
		fmt.Fprintln(w, "load/csv:", err)
		return
	}
	tbl.AddRow("flat table, CSV loader", stCSV.Points, stCSV.ConvertTime, stCSV.AppendTime,
		stCSV.Total(), bench.Throughput(stCSV.Points, stCSV.Total()))

	blockTime := bench.Measure(func() {
		if _, err := blockstore.Build(env.points, blockstore.Options{}); err != nil {
			fmt.Fprintln(w, "load/blocks:", err)
		}
	})
	tbl.AddRow("block store (sort+compress)", len(env.points), "-", "-",
		blockTime, bench.Throughput(len(env.points), blockTime))

	tbl.AddRow("file-based ETL (lassort+lasindex)", len(env.points), "-", "-",
		env.etlTime, bench.Throughput(len(env.points), env.etlTime))

	tbl.WriteTo(w)
	fmt.Fprintf(w, "csv/binary slowdown: %.1fx (paper: ~7x — one day vs almost a week)\n",
		float64(stCSV.Total())/float64(stBin.Total()))
}

// --- E2: storage ----------------------------------------------------------------

func expStorage(env *benchEnv, w io.Writer, _ int) {
	var lasBytes int64
	for _, f := range env.repo.Files() {
		if fi, err := os.Stat(f); err == nil {
			lasBytes += fi.Size()
		}
	}
	var lazBytes int64
	cw := &countWriter{}
	if err := las.WriteLAZ(cw, 3, 0.01, 0.01, 0.01,
		env.region.MinX, env.region.MinY, 0, env.points); err == nil {
		lazBytes = cw.n
	}

	env.pc.EnsureImprints()
	sx, sy := env.pc.ImprintStats()
	flat := int64(env.pc.Bytes())
	idx := int64(env.pc.IndexBytes())

	tbl := bench.NewTable("E2 storage footprint (§3.2)",
		"representation", "bytes", "per point", "notes")
	n := int64(env.pc.Len())
	per := func(b int64) string { return fmt.Sprintf("%.1f B", float64(b)/float64(n)) }
	tbl.AddRow("LAS tiles (on disk)", bench.HumanBytes(lasBytes), per(lasBytes), "format 3 records")
	tbl.AddRow("LAZ-sim tiles", bench.HumanBytes(lazBytes), per(lazBytes), "delta+varint")
	tbl.AddRow("flat table columns", bench.HumanBytes(flat), per(flat), "26 columns in memory")
	tbl.AddRow("column imprints (x+y)", bench.HumanBytes(idx), per(idx),
		fmt.Sprintf("%.1f%% / %.1f%% of coord columns", sx.OverheadPercent, sy.OverheadPercent))
	tbl.AddRow("block store patches", bench.HumanBytes(int64(env.store.Bytes())),
		per(int64(env.store.Bytes())), fmt.Sprintf("%d patches", env.store.Blocks()))
	tbl.WriteTo(w)
	fmt.Fprintf(w, "imprint overhead within the paper's 5-12%% band: x=%.1f%%, y=%.1f%%\n",
		sx.OverheadPercent, sy.OverheadPercent)
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// --- E5: selection --------------------------------------------------------------

// queryBoxes returns query rectangles hitting roughly the given fraction of
// the region area, at deterministic positions.
func (env *benchEnv) queryBoxes(selectivity float64, count int) []geom.Envelope {
	side := env.region.Width() * sqrt(selectivity)
	boxes := make([]geom.Envelope, count)
	rng := rand.New(rand.NewSource(int64(selectivity * 1e6)))
	for i := range boxes {
		x := env.region.MinX + rng.Float64()*(env.region.Width()-side)
		y := env.region.MinY + rng.Float64()*(env.region.Height()-side)
		boxes[i] = geom.NewEnvelope(x, y, x+side, y+side)
	}
	return boxes
}

func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	x := v
	for i := 0; i < 40; i++ {
		x = (x + v/x) / 2
	}
	return x
}

func expSelect(env *benchEnv, w io.Writer, repeats int) {
	tbl := bench.NewTable("E5 spatial selection: DBMS filter-refine vs baselines (§3.3, §4.1)",
		"selectivity", "method", "mean time", "matches", "rows touched")
	env.pc.EnsureImprints()
	for _, selectivity := range []float64{0.0001, 0.001, 0.01, 0.1} {
		boxes := env.queryBoxes(selectivity, 3)
		type arm struct {
			name string
			run  func(geom.Envelope) (int, int)
		}
		arms := []arm{
			{"column store: imprints+grid", func(b geom.Envelope) (int, int) {
				sel := env.pc.SelectBox(b)
				return len(sel.Rows), sel.Refine.CandidateRows
			}},
			{"column store: full scan", func(b geom.Envelope) (int, int) {
				sel := env.pc.SelectRegionScan(grid.GeometryRegion{G: b.ToPolygon()})
				return len(sel.Rows), env.pc.Len()
			}},
			{"file-based: header prune", func(b geom.Envelope) (int, int) {
				pts, st, err := env.repo.ClipBox(b)
				if err != nil {
					return -1, 0
				}
				return len(pts), st.PointsRead
			}},
			{"file-based: lasindex", func(b geom.Envelope) (int, int) {
				pts, st, err := env.repoIdx.ClipBox(b)
				if err != nil {
					return -1, 0
				}
				return len(pts), st.PointsRead
			}},
			{"block store: patches", func(b geom.Envelope) (int, int) {
				pts, st, err := env.store.QueryBox(b)
				if err != nil {
					return -1, 0
				}
				return len(pts), st.PointsDecompressed
			}},
		}
		for _, a := range arms {
			var matches, touched int
			d := bench.MeasureN(repeats, func() {
				matches, touched = 0, 0
				for _, b := range boxes {
					m, t := a.run(b)
					matches += m
					touched += t
				}
			})
			tbl.AddRow(fmt.Sprintf("%.2f%%", selectivity*100), a.name,
				d/time.Duration(len(boxes)), matches/len(boxes), touched/len(boxes))
		}
	}
	tbl.WriteTo(w)

	// Polygon selection, same pipeline (scenario 1's "points within region").
	poly := geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
		{X: env.region.MinX + env.region.Width()*0.2, Y: env.region.MinY + env.region.Height()*0.3},
		{X: env.region.MinX + env.region.Width()*0.6, Y: env.region.MinY + env.region.Height()*0.25},
		{X: env.region.MinX + env.region.Width()*0.7, Y: env.region.MinY + env.region.Height()*0.7},
		{X: env.region.MinX + env.region.Width()*0.35, Y: env.region.MinY + env.region.Height()*0.8},
	}}}
	tp := bench.NewTable("E5b polygon selection", "method", "mean time", "matches")
	dDB := bench.MeasureN(repeats, func() { env.pc.SelectGeometry(poly) })
	selDB := env.pc.SelectGeometry(poly)
	tp.AddRow("column store: imprints+grid", dDB, len(selDB.Rows))
	dFile := bench.MeasureN(repeats, func() {
		if _, _, err := env.repoIdx.ClipGeometry(poly); err != nil {
			fmt.Fprintln(w, "clip:", err)
		}
	})
	ptsFile, _, _ := env.repoIdx.ClipGeometry(poly)
	tp.AddRow("file-based: lasindex", dFile, len(ptsFile))
	dBlock := bench.MeasureN(repeats, func() {
		if _, _, err := env.store.QueryGeometry(poly); err != nil {
			fmt.Fprintln(w, "block query:", err)
		}
	})
	ptsBlock, _, _ := env.store.QueryGeometry(poly)
	tp.AddRow("block store: patches", dBlock, len(ptsBlock))
	tp.WriteTo(w)
}

// --- E6: vector selection ---------------------------------------------------------

func expVector(env *benchEnv, w io.Writer, repeats int) {
	c := env.region.Center()
	q := geom.NewEnvelope(c.X-env.region.Width()*0.2, c.Y-env.region.Height()*0.2,
		c.X+env.region.Width()*0.2, c.Y+env.region.Height()*0.2).ToPolygon()

	tbl := bench.NewTable("E6 vector selection: roads intersecting a region (§4.1)",
		"method", "mean time", "matches")
	var dbRows int
	dDB := bench.MeasureN(repeats, func() {
		ex := &engine.Explain{}
		dbRows = len(env.osm.SelectIntersects(q, ex))
	})
	tbl.AddRow("vector table (envelope cache)", dDB, dbRows)

	// File-based comparator: re-read and re-parse the TSV per query, the
	// cost a file workflow pays without a database.
	var fileRows int
	dFile := bench.MeasureN(repeats, func() {
		feats, err := synth.ReadOSMFile(filepath.Join(env.dir, dataset.OSMFile))
		if err != nil {
			fmt.Fprintln(w, "osm read:", err)
			return
		}
		fileRows = 0
		for _, f := range feats {
			if geom.Intersects(f.Geom, q) {
				fileRows++
			}
		}
	})
	tbl.AddRow("file-based (parse + filter)", dFile, fileRows)
	tbl.WriteTo(w)
}

// --- E7: ad-hoc multi-dataset queries ----------------------------------------------

// demoQueries lists the scenario queries and whether a file-based workflow
// can express them at all — the functional comparison of §4.1/§4.2.
var demoQueries = []struct {
	desc        string
	sql         string
	fileableLAS bool
}{
	{
		"LIDAR points within a region",
		`SELECT count(*) FROM ahn2 WHERE ST_Contains(ST_MakeEnvelope(%f, %f, %f, %f), ST_Point(x, y))`,
		true,
	},
	{
		"roads intersecting a region",
		`SELECT count(*) FROM osm WHERE ST_Intersects(geom, ST_MakeEnvelope(%f, %f, %f, %f))`,
		false,
	},
	{
		"points near fast-transit land (UA 12210)",
		`SELECT count(*) FROM ahn2, ua WHERE ua.class = '12210' AND ST_DWithin(ua.geom, ST_Point(ahn2.x, ahn2.y), 25)`,
		false,
	},
	{
		"avg elevation near fast-transit land",
		`SELECT avg(z) FROM ahn2, ua WHERE ua.class = '12210' AND ST_DWithin(ua.geom, ST_Point(ahn2.x, ahn2.y), 25)`,
		false,
	},
	{
		"building points above 15 m in a region",
		`SELECT count(*) FROM ahn2 WHERE ST_Contains(ST_MakeEnvelope(%f, %f, %f, %f), ST_Point(x, y)) AND classification = 6 AND z > 15`,
		false,
	},
}

func expAdhoc(env *benchEnv, w io.Writer, repeats int) {
	exec := sql.New(env.db)
	c := env.region.Center()
	half := env.region.Width() * 0.15
	box := [4]float64{c.X - half, c.Y - half, c.X + half, c.Y + half}

	tbl := bench.NewTable("E7 ad-hoc queries: expressiveness + performance (§4.2)",
		"query", "file-based?", "mean time", "result")
	for _, q := range demoQueries {
		stmt := q.sql
		if strings.Contains(stmt, "%f") {
			stmt = fmt.Sprintf(stmt, box[0], box[1], box[2], box[3])
		}
		var result string
		d := bench.MeasureN(repeats, func() {
			res, err := exec.Query(stmt)
			if err != nil {
				result = "error: " + err.Error()
				return
			}
			if res.Len() > 0 {
				result = res.Cols[0].Value(0).String()
			}
		})
		supported := "no (needs DBMS)"
		if q.fileableLAS {
			supported = "yes (lasclip)"
		}
		tbl.AddRow(q.desc, supported, d, result)
	}
	tbl.WriteTo(w)
}

// --- E8: per-operator explain --------------------------------------------------------

func expExplain(env *benchEnv, w io.Writer, _ int) {
	exec := sql.New(env.db)
	stmt := `SELECT count(*) AS n, avg(z) AS mean_z FROM ahn2, ua
	         WHERE ua.class = '12210' AND ST_DWithin(ua.geom, ST_Point(ahn2.x, ahn2.y), 25)`
	res, err := exec.Query(stmt)
	if err != nil {
		fmt.Fprintln(w, "explain:", err)
		return
	}
	fmt.Fprintln(w, "E8 per-operator execution trace (§4.2)")
	fmt.Fprintln(w, "query:", strings.Join(strings.Fields(stmt), " "))
	fmt.Fprint(w, res.Explain.String())
}

// --- E9: imprint anatomy ---------------------------------------------------------------

func expImprints(env *benchEnv, w io.Writer, _ int) {
	// The scanner sweeps X within Y swaths, so Y is near-sorted in file
	// order (strong clustering) while X oscillates per swath (weak
	// clustering). A shuffled copy is the adversarial case.
	ys := append([]float64(nil), env.pc.Y()...)
	xs := append([]float64(nil), env.pc.X()...)
	shuffled := append([]float64(nil), ys...)
	env.rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	tbl := bench.NewTable("E9 imprint anatomy: clustered vs shuffled (§2.1.1)",
		"column", "build", "vectors", "compression", "overhead", "cand. frac (1% range)")
	width := (env.region.MaxX - env.region.MinX) * 0.01
	lo := env.region.MinX + env.region.Width()*0.4
	for _, c := range []struct {
		name string
		vals []float64
	}{
		{"y (swath order, clustered)", ys},
		{"x (sweep order, mixed)", xs},
		{"y shuffled (adversarial)", shuffled},
	} {
		var im *imprints.Imprints
		d := bench.Measure(func() {
			var err error
			im, err = imprints.Build(c.vals, imprints.Options{})
			if err != nil {
				fmt.Fprintln(w, "imprints:", err)
			}
		})
		tbl.AddRow(c.name, d, im.VectorCount(),
			fmt.Sprintf("%.1fx", im.CompressionRatio()),
			fmt.Sprintf("%.2f%%", im.OverheadPercent()),
			fmt.Sprintf("%.3f", im.CandidateFraction(lo, lo+width)))
	}
	tbl.WriteTo(w)
	fmt.Fprintln(w, "note: shuffled imprints stay correct (superset invariant) but lose compression —")
	fmt.Fprintln(w, "the robustness the paper claims for unclustered data.")
}

// --- E11: vectorized kernels -------------------------------------------------------------

// expKernels compares the old execution styles against the compiled kernel
// layer on the dataset's thematic columns: (a) the fully generic
// interface-dispatch scan (Column.Value per row), (b) the pre-refactor
// typed loop that still re-dispatched the operator through
// ColumnPred.Matches and widened every value to float64, and (c) the
// compiled type- and op-specialised kernels. Results feed the JSON report
// so later PRs can track the trajectory.
func expKernels(env *benchEnv, w io.Writer, repeats int) {
	tbl := bench.NewTable("E11 predicate kernels: interface scan vs Matches loop vs compiled kernel",
		"predicate", "arm", "mean time", "matches", "speedup")
	reps := repeats * 5 // sub-millisecond arms; extra reps stabilise the mean
	preds := []engine.ColumnPred{
		{Column: engine.ColClassification, Op: engine.CmpEQ, Value: 6},
		{Column: engine.ColIntensity, Op: engine.CmpGT, Value: 700},
		{Column: engine.ColScanAngle, Op: engine.CmpBetween, Value: -10, Value2: 10},
		{Column: engine.ColZ, Op: engine.CmpBetween, Value: 0, Value2: 10},
	}
	for _, pred := range preds {
		col := env.pc.Column(pred.Column)
		n := col.Len()

		// (a) generic interface scan, materialising the selection vector
		// like the other arms.
		var nGeneric int
		var genericOut []int
		dGeneric := bench.MeasureN(reps, func() {
			genericOut = genericOut[:0]
			for i := 0; i < n; i++ {
				if pred.Matches(col.Value(i)) {
					genericOut = append(genericOut, i)
				}
			}
			nGeneric = len(genericOut)
		})

		// (b) typed loop, per-row operator dispatch through Matches.
		var nMatches int
		dMatches := bench.MeasureN(reps, func() {
			nMatches = len(matchesLoop(col, pred))
		})

		// (c) compiled kernel, pooled output.
		k := engine.CompileFilter(col, pred)
		var nKernel int
		dKernel := bench.MeasureN(reps, func() {
			rows := k.FilterBlock(0, n, nil)
			nKernel = len(rows)
			engine.RecycleRows(rows)
		})

		if nGeneric != nMatches || nMatches != nKernel {
			fmt.Fprintf(w, "E11 MISMATCH on %s: %d / %d / %d\n", pred, nGeneric, nMatches, nKernel)
		}
		speedup := func(base, d time.Duration) float64 {
			if d <= 0 {
				return 0
			}
			return float64(base) / float64(d)
		}
		tbl.AddRow(pred.String(), "interface scan", dGeneric, nGeneric, "1.0x")
		tbl.AddRow(pred.String(), "typed Matches loop", dMatches, nMatches,
			fmt.Sprintf("%.1fx", speedup(dGeneric, dMatches)))
		tbl.AddRow(pred.String(), "compiled kernel", dKernel, nKernel,
			fmt.Sprintf("%.1fx", speedup(dGeneric, dKernel)))
		env.report.add("kernels", pred.String(), "interface_scan", n, nGeneric, dGeneric, 1)
		env.report.add("kernels", pred.String(), "matches_loop", n, nMatches, dMatches, speedup(dGeneric, dMatches))
		env.report.add("kernels", pred.String(), "compiled_kernel", n, nKernel, dKernel, speedup(dGeneric, dKernel))
	}
	tbl.WriteTo(w)

	// Aggregate kernels: fused sum/min/max vs a per-value closure.
	ta := bench.NewTable("E11b aggregate kernels: closure vs fused typed pass",
		"aggregate", "arm", "mean time", "speedup")
	for _, name := range []string{engine.ColZ, engine.ColIntensity} {
		col := env.pc.Column(name)
		var closureSum float64
		dClosure := bench.MeasureN(reps, func() {
			sum := 0.0
			acc := func(v float64) { sum += v }
			for i := 0; i < col.Len(); i++ {
				acc(col.Value(i))
			}
			closureSum = sum
		})
		var kernelSum float64
		dKernel := bench.MeasureN(reps, func() {
			v, err := env.pc.Aggregate(nil, engine.AggSum, name, nil)
			if err != nil {
				fmt.Fprintln(w, "E11b:", err)
				return
			}
			kernelSum = v
		})
		if closureSum != kernelSum {
			fmt.Fprintf(w, "E11b MISMATCH on sum(%s): %g vs %g\n", name, closureSum, kernelSum)
		}
		sp := float64(dClosure) / float64(dKernel)
		ta.AddRow("sum("+name+")", "closure", dClosure, "1.0x")
		ta.AddRow("sum("+name+")", "fused kernel", dKernel, fmt.Sprintf("%.1fx", sp))
		env.report.add("kernels", "sum("+name+")", "closure", col.Len(), 0, dClosure, 1)
		env.report.add("kernels", "sum("+name+")", "fused_kernel", col.Len(), 0, dKernel, sp)
	}
	ta.WriteTo(w)
}

// matchesLoop is the pre-refactor typed filter loop: concrete column
// access, but operator re-dispatch and float64 widening per row.
func matchesLoop(col colstore.Column, pred engine.ColumnPred) []int {
	var out []int
	switch t := col.(type) {
	case *colstore.F64Column:
		for i, v := range t.Values() {
			if pred.Matches(v) {
				out = append(out, i)
			}
		}
	case *colstore.U8Column:
		for i, v := range t.Values() {
			if pred.Matches(float64(v)) {
				out = append(out, i)
			}
		}
	case *colstore.U16Column:
		for i, v := range t.Values() {
			if pred.Matches(float64(v)) {
				out = append(out, i)
			}
		}
	case *colstore.I32Column:
		for i, v := range t.Values() {
			if pred.Matches(float64(v)) {
				out = append(out, i)
			}
		}
	default:
		for i := 0; i < col.Len(); i++ {
			if pred.Matches(col.Value(i)) {
				out = append(out, i)
			}
		}
	}
	return out
}

// --- E10: ablations ---------------------------------------------------------------------

func expAblation(env *benchEnv, w io.Writer, repeats int) {
	env.pc.EnsureImprints()
	region := grid.GeometryRegion{G: geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
		{X: env.region.MinX + env.region.Width()*0.3, Y: env.region.MinY + env.region.Height()*0.3},
		{X: env.region.MinX + env.region.Width()*0.7, Y: env.region.MinY + env.region.Height()*0.35},
		{X: env.region.MinX + env.region.Width()*0.6, Y: env.region.MinY + env.region.Height()*0.7},
	}}}}

	t1 := bench.NewTable("E10a refinement: regular grid vs exhaustive (§3.3)",
		"refinement", "mean time", "exact tests", "matches")
	selGrid := env.pc.SelectRegion(region)
	dGrid := bench.MeasureN(repeats, func() { env.pc.SelectRegion(region) })
	t1.AddRow("grid (accept/reject cells)", dGrid, selGrid.Refine.ExactTests, len(selGrid.Rows))
	selEx := env.pc.SelectRegionImprintsOnly(region)
	dEx := bench.MeasureN(repeats, func() { env.pc.SelectRegionImprintsOnly(region) })
	t1.AddRow("exhaustive per-point tests", dEx, selEx.Refine.ExactTests, len(selEx.Rows))
	t1.WriteTo(w)

	// Bin count sweep.
	t2 := bench.NewTable("E10b imprint bins: candidate fraction vs storage",
		"bins", "overhead", "cand. frac (1% range)")
	width := env.region.Width() * 0.01
	lo := env.region.MinX + env.region.Width()*0.4
	for _, bits := range []int{8, 16, 32, 64} {
		im, err := imprints.Build(env.pc.X(), imprints.Options{Bits: bits})
		if err != nil {
			fmt.Fprintln(w, "bins:", err)
			continue
		}
		t2.AddRow(bits, fmt.Sprintf("%.2f%%", im.OverheadPercent()),
			fmt.Sprintf("%.3f", im.CandidateFraction(lo, lo+width)))
	}
	t2.WriteTo(w)

	// Cacheline width sweep.
	t3 := bench.NewTable("E10c values per cache line",
		"values/line", "lines", "overhead", "cand. frac (1% range)")
	for _, vpl := range []int{8, 16, 32, 64} {
		im, err := imprints.Build(env.pc.X(), imprints.Options{ValuesPerLine: vpl})
		if err != nil {
			fmt.Fprintln(w, "vpl:", err)
			continue
		}
		t3.AddRow(vpl, im.Lines(), fmt.Sprintf("%.2f%%", im.OverheadPercent()),
			fmt.Sprintf("%.3f", im.CandidateFraction(lo, lo+width)))
	}
	t3.WriteTo(w)

	// Thematic imprints: range filter on a non-coordinate column.
	t5 := bench.NewTable("E10e thematic range filter: column imprint vs scan",
		"column / range", "method", "mean time", "matches")
	zlo, zhi, _ := env.pc.Column("z").MinMax()
	zwin := zlo + (zhi-zlo)*0.1
	gpsLo, gpsHi := gpsWindow(env)
	for _, c := range []struct {
		name   string
		lo, hi float64
	}{
		{"z (terrain band)", zlo, zwin},
		{"gps_time (1% window)", gpsLo, gpsHi},
	} {
		exI := &engine.Explain{}
		// Warm the column imprint so measurements cover queries, not the
		// one-time index build (which E2/E9 account for separately).
		if _, err := env.pc.EnsureColumnImprint(columnOf(c.name)); err != nil {
			fmt.Fprintln(w, "range:", err)
			continue
		}
		var nIdx int
		dIdx := bench.MeasureN(repeats, func() {
			rows, err := env.pc.FilterRangeIndexed(columnOf(c.name), c.lo, c.hi, exI)
			if err != nil {
				fmt.Fprintln(w, "range:", err)
				return
			}
			nIdx = len(rows)
		})
		t5.AddRow(c.name, "imprint + refine", dIdx, nIdx)
		var nScan int
		dScan := bench.MeasureN(repeats, func() {
			rows, err := env.pc.FilterRangeScan(columnOf(c.name), c.lo, c.hi, exI)
			if err != nil {
				fmt.Fprintln(w, "range:", err)
				return
			}
			nScan = len(rows)
		})
		t5.AddRow(c.name, "full scan", dScan, nScan)
		if nIdx != nScan {
			fmt.Fprintf(w, "E10e MISMATCH: %d vs %d\n", nIdx, nScan)
		}
	}
	t5.WriteTo(w)

	// Parallel refinement.
	t6 := bench.NewTable("E10f parallel refinement",
		"mode", "mean time", "matches")
	bigRegion := grid.GeometryRegion{G: geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
		{X: env.region.MinX + 10, Y: env.region.MinY + 10},
		{X: env.region.MaxX - 10, Y: env.region.MinY + 50},
		{X: env.region.MaxX - 50, Y: env.region.MaxY - 10},
		{X: env.region.MinX + 50, Y: env.region.MaxY - 50},
	}}}}
	selSer := env.pc.SelectRegion(bigRegion)
	dSer := bench.MeasureN(repeats, func() { env.pc.SelectRegion(bigRegion) })
	t6.AddRow("serial", dSer, len(selSer.Rows))
	env.pc.Parallel = true
	selPar := env.pc.SelectRegion(bigRegion)
	dPar := bench.MeasureN(repeats, func() { env.pc.SelectRegion(bigRegion) })
	env.pc.Parallel = false
	t6.AddRow("parallel (auto workers)", dPar, len(selPar.Rows))
	t6.WriteTo(w)

	// Block-store curve sweep.
	t4 := bench.NewTable("E10d block sort curve (§2.3)",
		"curve", "query mean", "patches decompressed")
	qb := env.queryBoxes(0.01, 3)
	for _, curve := range []sfc.Curve{sfc.Morton, sfc.Hilbert} {
		st, err := blockstore.Build(env.points, blockstore.Options{Curve: curve})
		if err != nil {
			fmt.Fprintln(w, "blocks:", err)
			continue
		}
		var dec int
		d := bench.MeasureN(repeats, func() {
			dec = 0
			for _, b := range qb {
				_, qs, err := st.QueryBox(b)
				if err == nil {
					dec += qs.BlocksDecompressed
				}
			}
		})
		t4.AddRow(curve.String(), d/time.Duration(len(qb)), dec/len(qb))
	}
	t4.WriteTo(w)
}

// columnOf maps an E10e display label to its column name.
func columnOf(label string) string {
	if strings.HasPrefix(label, "gps_time") {
		return engine.ColGPSTime
	}
	return engine.ColZ
}

// gpsWindow returns a 1% window at the start of the gps_time column.
func gpsWindow(env *benchEnv) (float64, float64) {
	lo, hi, _ := env.pc.Column(engine.ColGPSTime).MinMax()
	return lo, lo + (hi-lo)*0.01
}
