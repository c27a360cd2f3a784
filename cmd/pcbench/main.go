// Command pcbench regenerates the paper's quantitative claims (the
// experiment index E1–E10 in README.md, "Benchmarks"): bulk-loading
// throughput, storage footprints and imprint overhead, selection
// performance of the filter–refine pipeline against the file-based and
// block-based baselines, vector and ad-hoc multi-dataset queries, the
// per-operator EXPLAIN view, imprint anatomy, and the design-choice
// ablations. Figures 1 and 2 are regenerated by cmd/pcviz.
//
// The tables are self-checking: arms that answer the same question must
// report the same match count and no arm may error, or the process exits 1
// after the tables print. Performance gating is not pcbench's job — that
// is benchmark/run.sh.
//
// Usage:
//
//	pcbench -e all -scale small
//	pcbench -e load,select -data existing-dataset-dir
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"gisnav/internal/ablate"
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
}

// experiment is one entry of the paper's index. The -e help text, -e all
// and the CI smoke are all derived from the experiments slice.
type experiment struct {
	name string
	run  func(env *benchEnv, out *output, repeats int)
}

var experiments = []experiment{
	{"load", expLoad},
	{"storage", expStorage},
	{"select", expSelect},
	{"vector", expVector},
	{"adhoc", expAdhoc},
	{"explain", expExplain},
	{"imprints", expImprints},
	{"ablation", expAblation},
}

func experimentNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, ",")
}

// selectExperiments resolves an -e value ("all" or a comma list) to
// registered experiments, in registration order.
func selectExperiments(spec string) ([]experiment, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		known := slices.ContainsFunc(experiments, func(e experiment) bool { return e.name == name })
		if name != "all" && !known {
			return nil, fmt.Errorf("unknown experiment %q (registered: all,%s)", name, experimentNames())
		}
		want[name] = true
	}
	var picked []experiment
	for _, e := range experiments {
		if want["all"] || want[e.name] {
			picked = append(picked, e)
		}
	}
	return picked, nil
}

// output is where an experiment prints its tables and the runner's one
// check path: every arm error and every disagreement between arms that
// answer the same question lands in failures.
type output struct {
	io.Writer
	failures int
}

func (o *output) failf(format string, args ...any) {
	o.failures++
	fmt.Fprintf(o, "CHECK FAILED: "+format+"\n", args...)
}

// check reports a non-nil arm error as a failure; true means the arm ran.
func (o *output) check(arm string, err error) bool {
	if err != nil {
		o.failf("%s: %v", arm, err)
	}
	return err == nil
}

// group starts one row group: arms that answer the same question and must
// therefore report the same match count.
func (o *output) group(name string) *group { return &group{out: o, name: name} }

type group struct {
	out   *output
	name  string
	first string // the arm every later one is held to
	want  int
}

func (g *group) arm(arm string, matches int) {
	if g.first == "" {
		g.first, g.want = arm, matches
	} else if matches != g.want {
		g.out.failf("%s: %q found %d matches, %q found %d", g.name, arm, matches, g.first, g.want)
	}
}

func main() {
	var (
		dir     = flag.String("data", "", "existing dataset dir (generated when empty)")
		exps    = flag.String("e", "all", "experiments: all or comma list of "+experimentNames())
		scale   = flag.String("scale", "small", "generated dataset scale: small, medium, large")
		seed    = flag.Uint64("seed", 2015, "generator seed")
		repeats = flag.Int("repeats", 3, "query repetitions per measurement")
	)
	flag.Parse()

	picked, err := selectExperiments(*exps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcbench:", err)
		os.Exit(2)
	}
	env, err := setup(*dir, *scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcbench:", err)
		os.Exit(1)
	}
	fmt.Printf("dataset: %d points, region %s, %d tiles\n\n",
		env.pc.Len(), env.region, len(env.repo.Files()))
	if failures := runExperiments(env, os.Stdout, picked, *repeats); failures > 0 {
		fmt.Fprintf(os.Stderr, "pcbench: %d check(s) failed\n", failures)
		os.Exit(1)
	}
}

// runExperiments prints the picked experiments' tables to w and returns
// the number of failed checks; the process exits 1 unless it is zero.
func runExperiments(env *benchEnv, w io.Writer, picked []experiment, repeats int) int {
	out := &output{Writer: w}
	for _, e := range picked {
		e.run(env, out, repeats)
		fmt.Fprintln(out)
	}
	return out.failures
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

func expLoad(env *benchEnv, out *output, _ int) {
	tbl := bench.NewTable("E1 load: binary (records straight into columns) vs CSV vs baselines (§3.2)",
		"method", "points", "convert", "append", "total", "throughput")

	pc := engine.NewPointCloud()
	stBin, err := engine.LoadBinary(pc, env.repo)
	if !out.check("E1 binary loader", err) {
		return
	}
	tbl.AddRow("flat table, binary loader (x, y, z)", stBin.Points, stBin.ConvertTime, stBin.AppendTime,
		stBin.Total(), bench.Throughput(stBin.Points, stBin.Total()))
	// The paper's loader writes every attribute: time the first touch of
	// the 23 deferred columns too, so the CSV comparison is like for like.
	var names []string
	for _, f := range pc.Schema().Fields {
		names = append(names, f.Name)
	}
	touch := bench.Measure(func() { err = pc.EnsureColumns(nil, names...) })
	if !out.check("E1 first touch", err) {
		return
	}
	full := stBin.Total() + touch
	tbl.AddRow("  + first touch of the other 23", stBin.Points, "-", "-", full, bench.Throughput(stBin.Points, full))

	stCSV, err := engine.LoadCSV(engine.NewPointCloud(), env.repo)
	if !out.check("E1 CSV loader", err) {
		return
	}
	tbl.AddRow("flat table, CSV loader", stCSV.Points, stCSV.ConvertTime, stCSV.AppendTime,
		stCSV.Total(), bench.Throughput(stCSV.Points, stCSV.Total()))

	blockTime := bench.Measure(func() {
		_, err = blockstore.Build(env.points, blockstore.Options{})
	})
	out.check("E1 block store build", err)
	tbl.AddRow("block store (sort+compress)", len(env.points), "-", "-",
		blockTime, bench.Throughput(len(env.points), blockTime))

	tbl.AddRow("file-based ETL (lassort+lasindex)", len(env.points), "-", "-",
		env.etlTime, bench.Throughput(len(env.points), env.etlTime))

	tbl.WriteTo(out)
	fmt.Fprintf(out, "csv/binary slowdown: %.1fx (paper: ~7x — one day vs almost a week)\n",
		float64(stCSV.Total())/float64(full))
}

// --- E2: storage ----------------------------------------------------------------

func expStorage(env *benchEnv, out *output, _ int) {
	var lasBytes int64
	for _, f := range env.repo.Files() {
		fi, err := os.Stat(f)
		if out.check("E2 stat "+f, err) {
			lasBytes += fi.Size()
		}
	}
	cw := &countWriter{}
	out.check("E2 LAZ-sim encode", las.WriteLAZ(cw, 3, 0.01, 0.01, 0.01,
		env.region.MinX, env.region.MinY, 0, env.points))
	lazBytes := cw.n

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
	tbl.AddRow("flat table columns", bench.HumanBytes(flat), per(flat), "26 columns, logical")
	tbl.AddRow("column imprints (x+y)", bench.HumanBytes(idx), per(idx),
		fmt.Sprintf("%.1f%% / %.1f%% of coord columns", sx.OverheadPercent, sy.OverheadPercent))
	tbl.AddRow("block store patches", bench.HumanBytes(int64(env.store.Bytes())),
		per(int64(env.store.Bytes())), fmt.Sprintf("%d patches", env.store.Blocks()))
	tbl.WriteTo(out)
	fmt.Fprintf(out, "imprint overhead within the paper's 5-12%% band: x=%.1f%%, y=%.1f%%\n",
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

func expSelect(env *benchEnv, out *output, repeats int) {
	tbl := bench.NewTable("E5 spatial selection: DBMS filter-refine vs baselines (§3.3, §4.1)",
		"selectivity", "method", "mean time", "matches", "rows touched")
	env.pc.EnsureImprints()
	// Each arm answers one box with (matches, rows touched).
	arms := []struct {
		name string
		run  func(geom.Envelope) (int, int, error)
	}{
		{"column store: imprints+grid", func(b geom.Envelope) (int, int, error) {
			var ex engine.Explain
			rows := env.pc.SelectRegionRowsRun(nil, grid.GeometryRegion{G: b.ToPolygon()}, -1, &ex)
			engine.RecycleRows(rows)
			return len(rows), refinedRows(&ex), nil
		}},
		{"column store: full scan", func(b geom.Envelope) (int, int, error) {
			rows, _ := ablate.SelectRegionScan(env.pc, grid.GeometryRegion{G: b.ToPolygon()})
			return len(rows), env.pc.Len(), nil
		}},
		{"file-based: header prune", func(b geom.Envelope) (int, int, error) {
			pts, st, err := env.repo.ClipBox(b)
			return len(pts), st.PointsRead, err
		}},
		{"file-based: lasindex", func(b geom.Envelope) (int, int, error) {
			pts, st, err := env.repoIdx.ClipBox(b)
			return len(pts), st.PointsRead, err
		}},
		{"block store: patches", func(b geom.Envelope) (int, int, error) {
			pts, st, err := env.store.QueryBox(b)
			return len(pts), st.PointsDecompressed, err
		}},
	}
	for _, selectivity := range []float64{0.0001, 0.001, 0.01, 0.1} {
		boxes := env.queryBoxes(selectivity, 3)
		label := fmt.Sprintf("%.2f%%", selectivity*100)
		agree := out.group("E5 " + label)
		for _, a := range arms {
			var matches, touched int
			var err error
			d := bench.MeasureN(repeats, func() {
				matches, touched = 0, 0
				for _, b := range boxes {
					m, t, e := a.run(b)
					if e != nil {
						err = e
					}
					matches += m
					touched += t
				}
			})
			if !out.check("E5 "+label+" "+a.name, err) {
				continue
			}
			agree.arm(a.name, matches)
			tbl.AddRow(label, a.name, d/time.Duration(len(boxes)), matches/len(boxes), touched/len(boxes))
		}
	}
	tbl.WriteTo(out)

	// Polygon selection, same pipeline (scenario 1's "points within region").
	poly := geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
		{X: env.region.MinX + env.region.Width()*0.2, Y: env.region.MinY + env.region.Height()*0.3},
		{X: env.region.MinX + env.region.Width()*0.6, Y: env.region.MinY + env.region.Height()*0.25},
		{X: env.region.MinX + env.region.Width()*0.7, Y: env.region.MinY + env.region.Height()*0.7},
		{X: env.region.MinX + env.region.Width()*0.35, Y: env.region.MinY + env.region.Height()*0.8},
	}}}
	tp := bench.NewTable("E5b polygon selection", "method", "mean time", "matches")
	agree := out.group("E5b polygon")
	for _, a := range []struct {
		name string
		run  func() (int, error)
	}{
		{"column store: imprints+grid", func() (int, error) {
			rows := env.pc.SelectRegionRows(grid.GeometryRegion{G: poly})
			engine.RecycleRows(rows)
			return len(rows), nil
		}},
		{"file-based: lasindex", func() (int, error) {
			pts, _, err := env.repoIdx.ClipGeometry(poly)
			return len(pts), err
		}},
		{"block store: patches", func() (int, error) {
			pts, _, err := env.store.QueryGeometry(poly)
			return len(pts), err
		}},
	} {
		var matches int
		var err error
		d := bench.MeasureN(repeats, func() { matches, err = a.run() })
		if out.check("E5b "+a.name, err) {
			agree.arm(a.name, matches)
			tp.AddRow(a.name, d, matches)
		}
	}
	tp.WriteTo(out)
}

// --- E6: vector selection ---------------------------------------------------------

func expVector(env *benchEnv, out *output, repeats int) {
	c := env.region.Center()
	q := geom.NewEnvelope(c.X-env.region.Width()*0.2, c.Y-env.region.Height()*0.2,
		c.X+env.region.Width()*0.2, c.Y+env.region.Height()*0.2).ToPolygon()

	tbl := bench.NewTable("E6 vector selection: roads intersecting a region (§4.1)",
		"method", "mean time", "matches")
	agree := out.group("E6 roads")
	var dbRows int
	dDB := bench.MeasureN(repeats, func() {
		ex := &engine.Explain{}
		dbRows = len(env.osm.SelectIntersects(q, ex))
	})
	agree.arm("vector table", dbRows)
	tbl.AddRow("vector table (envelope cache)", dDB, dbRows)

	// File-based comparator: re-read and re-parse the TSV per query, the
	// cost a file workflow pays without a database.
	var fileRows int
	var err error
	dFile := bench.MeasureN(repeats, func() {
		var feats []synth.Feature
		feats, err = synth.ReadOSMFile(filepath.Join(env.dir, dataset.OSMFile))
		fileRows = 0
		for _, f := range feats {
			if geom.Intersects(f.Geom, q) {
				fileRows++
			}
		}
	})
	if out.check("E6 file-based", err) {
		agree.arm("file-based", fileRows)
		tbl.AddRow("file-based (parse + filter)", dFile, fileRows)
	}
	tbl.WriteTo(out)
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

func expAdhoc(env *benchEnv, out *output, repeats int) {
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
		var res *sql.Result
		var err error
		d := bench.MeasureN(repeats, func() { res, err = exec.QueryContext(context.Background(), stmt) })
		if !out.check("E7 "+q.desc, err) {
			continue
		}
		var result string
		if res.Len() > 0 {
			result = res.Cols[0].Value(0).String()
		}
		supported := "no (needs DBMS)"
		if q.fileableLAS {
			supported = "yes (lasclip)"
		}
		tbl.AddRow(q.desc, supported, d, result)
	}
	tbl.WriteTo(out)
}

// --- E8: per-operator explain --------------------------------------------------------

func expExplain(env *benchEnv, out *output, _ int) {
	exec := sql.New(env.db)
	stmt := `SELECT count(*) AS n, avg(z) AS mean_z FROM ahn2, ua
	         WHERE ua.class = '12210' AND ST_DWithin(ua.geom, ST_Point(ahn2.x, ahn2.y), 25)`
	res, err := exec.QueryContext(context.Background(), stmt)
	if !out.check("E8 explain", err) {
		return
	}
	fmt.Fprintln(out, "== E8 per-operator execution trace (§4.2) ==")
	fmt.Fprintln(out, "query:", strings.Join(strings.Fields(stmt), " "))
	fmt.Fprint(out, res.Explain.String())
}

// --- E9: imprint anatomy ---------------------------------------------------------------

func expImprints(env *benchEnv, out *output, _ int) {
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
		var err error
		d := bench.Measure(func() { im, err = imprints.Build(c.vals, imprints.Options{}) })
		if !out.check("E9 "+c.name, err) {
			continue
		}
		tbl.AddRow(c.name, d, im.VectorCount(),
			fmt.Sprintf("%.1fx", im.CompressionRatio()),
			fmt.Sprintf("%.2f%%", im.OverheadPercent()),
			fmt.Sprintf("%.3f", im.CandidateFraction(lo, lo+width)))
	}
	tbl.WriteTo(out)
	fmt.Fprintln(out, "note: shuffled imprints stay correct (superset invariant) but lose compression —")
	fmt.Fprintln(out, "the robustness the paper claims for unclustered data.")
}

// --- E10: ablations ---------------------------------------------------------------------

func expAblation(env *benchEnv, out *output, repeats int) {
	env.pc.EnsureImprints()
	region := grid.GeometryRegion{G: geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
		{X: env.region.MinX + env.region.Width()*0.3, Y: env.region.MinY + env.region.Height()*0.3},
		{X: env.region.MinX + env.region.Width()*0.7, Y: env.region.MinY + env.region.Height()*0.35},
		{X: env.region.MinX + env.region.Width()*0.6, Y: env.region.MinY + env.region.Height()*0.7},
	}}}}

	// Both arms refine one imprint candidate list, so the table times the
	// refinement step alone.
	t1 := bench.NewTable("E10a refinement: regular grid vs exhaustive (§3.3)",
		"refinement", "mean time", "exact tests", "matches")
	agree := out.group("E10a refinement")
	cand, err := xyCandidates(env.pc, region.Envelope())
	if out.check("E10a candidates", err) {
		xs, ys := env.pc.X(), env.pc.Y()
		for _, a := range []struct {
			name   string
			refine func() ([]int, grid.Stats)
		}{
			{"grid (accept/reject cells)", func() ([]int, grid.Stats) {
				return grid.RefineInto(xs, ys, cand, region, env.pc.GridOpts, nil)
			}},
			{"exhaustive per-point tests", func() ([]int, grid.Stats) {
				return grid.RefineExhaustiveInto(xs, ys, cand, region, nil)
			}},
		} {
			rows, st := a.refine()
			d := bench.MeasureN(repeats, func() { a.refine() })
			agree.arm(a.name, len(rows))
			t1.AddRow(a.name, d, st.ExactTests, len(rows))
		}
	}
	t1.WriteTo(out)

	// Bin count sweep.
	t2 := bench.NewTable("E10b imprint bins: candidate fraction vs storage",
		"bins", "overhead", "cand. frac (1% range)")
	width := env.region.Width() * 0.01
	lo := env.region.MinX + env.region.Width()*0.4
	for _, bits := range []int{8, 16, 32, 64} {
		im, err := imprints.Build(env.pc.X(), imprints.Options{Bits: bits})
		if !out.check(fmt.Sprintf("E10b %d bins", bits), err) {
			continue
		}
		t2.AddRow(bits, fmt.Sprintf("%.2f%%", im.OverheadPercent()),
			fmt.Sprintf("%.3f", im.CandidateFraction(lo, lo+width)))
	}
	t2.WriteTo(out)

	// Cacheline width sweep.
	t3 := bench.NewTable("E10c values per cache line",
		"values/line", "lines", "overhead", "cand. frac (1% range)")
	for _, vpl := range []int{8, 16, 32, 64} {
		im, err := imprints.Build(env.pc.X(), imprints.Options{ValuesPerLine: vpl})
		if !out.check(fmt.Sprintf("E10c %d values/line", vpl), err) {
			continue
		}
		t3.AddRow(vpl, im.Lines(), fmt.Sprintf("%.2f%%", im.OverheadPercent()),
			fmt.Sprintf("%.3f", im.CandidateFraction(lo, lo+width)))
	}
	t3.WriteTo(out)

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
		// Build the column imprint once so measurements cover queries, not
		// the one-time index build (which E2/E9 account for separately).
		col := columnOf(c.name)
		im, err := ablate.EnsureColumnImprint(env.pc, col)
		if !out.check("E10e "+c.name, err) {
			continue
		}
		agree := out.group("E10e " + c.name)
		for _, a := range []struct {
			name   string
			filter func() ([]int, error)
		}{
			{"imprint + refine", func() ([]int, error) { return ablate.FilterRangeIndexed(env.pc, im, col, c.lo, c.hi) }},
			{"full scan", func() ([]int, error) { return ablate.FilterRangeScan(env.pc, col, c.lo, c.hi) }},
		} {
			var rows []int
			d := bench.MeasureN(repeats, func() { rows, err = a.filter() })
			if out.check("E10e "+c.name+" "+a.name, err) {
				agree.arm(a.name, len(rows))
				t5.AddRow(c.name, a.name, d, len(rows))
			}
		}
	}
	t5.WriteTo(out)

	// Parallel refinement.
	t6 := bench.NewTable("E10f parallel refinement",
		"mode", "mean time", "matches")
	bigRegion := grid.GeometryRegion{G: geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
		{X: env.region.MinX + 10, Y: env.region.MinY + 10},
		{X: env.region.MaxX - 10, Y: env.region.MinY + 50},
		{X: env.region.MaxX - 50, Y: env.region.MaxY - 10},
		{X: env.region.MinX + 50, Y: env.region.MaxY - 50},
	}}}}
	agree = out.group("E10f parallel refinement")
	// Refinement fans out under an explicit run cap only, so each arm sets
	// its own and the shared table's settings stay as they were.
	for _, m := range []struct {
		name string
		cap  int
	}{{"serial", 1}, {"parallel (all cores)", runtime.GOMAXPROCS(0)}} {
		run := new(engine.Run)
		run.SetMaxParallel(m.cap)
		var matches int
		d := bench.MeasureN(repeats, func() {
			rows := env.pc.SelectRegionRowsRun(run, bigRegion, -1, nil)
			matches = len(rows)
			run.RecycleRows(rows)
		})
		agree.arm(m.name, matches)
		t6.AddRow(m.name, d, matches)
	}
	t6.WriteTo(out)

	// Block-store curve sweep.
	t4 := bench.NewTable("E10d block sort curve (§2.3)",
		"curve", "query mean", "patches decompressed")
	qb := env.queryBoxes(0.01, 3)
	for _, curve := range []sfc.Curve{sfc.Morton, sfc.Hilbert} {
		st, err := blockstore.Build(env.points, blockstore.Options{Curve: curve})
		if !out.check("E10d build "+curve.String(), err) {
			continue
		}
		var dec int
		d := bench.MeasureN(repeats, func() {
			dec = 0
			for _, b := range qb {
				_, qs, e := st.QueryBox(b)
				if e != nil {
					err = e
				}
				dec += qs.BlocksDecompressed
			}
		})
		if out.check("E10d query "+curve.String(), err) {
			t4.AddRow(curve.String(), d/time.Duration(len(qb)), dec/len(qb))
		}
	}
	t4.WriteTo(out)
}

// refinedRows is the candidate count a traced selection handed to grid
// refinement (0 when the region was empty).
func refinedRows(ex *engine.Explain) int {
	for _, s := range ex.Steps {
		if s.Op == "grid.refine" {
			return s.InRows
		}
	}
	return 0
}

// xyCandidates is the imprint filter step over the coordinate columns: the
// cache-line ranges that may hold a point of env, from imprints built
// with the table's options.
func xyCandidates(pc *engine.PointCloud, env geom.Envelope) ([]colstore.Range, error) {
	imX, err := imprints.Build(pc.X(), pc.ImprintOpts)
	if err != nil {
		return nil, err
	}
	imY, err := imprints.Build(pc.Y(), pc.ImprintOpts)
	if err != nil {
		return nil, err
	}
	cand, _, err := imprints.ConjunctiveRangesInto([]imprints.Term{
		{Im: imX, Lo: env.MinX, Hi: env.MaxX},
		{Im: imY, Lo: env.MinY, Hi: env.MaxY},
	}, nil)
	return cand, err
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
