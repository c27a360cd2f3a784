package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"gisnav/internal/colstore"
	"gisnav/internal/engine"
	"gisnav/internal/grid"
	"gisnav/internal/imprints"
	"gisnav/internal/pyramid"
	"gisnav/internal/server"
	"gisnav/internal/sql"
)

// The traced run measures the layers from outside, by subtraction: every
// step of the script's head is run at each boundary below back to back,
// innermost first, and a layer's self time is its boundary's duration minus
// the durations of the boundaries directly inside it. Every boundary runs on
// its own server or executor over the shared table, so an inner call never
// warms an outer boundary's statement cache. Before a step's timed calls its
// engine work runs once untimed: that pulls the step's rows into the CPU
// caches, so all boundaries see the same memory state and the subtraction
// is not biased by which call came first (a repeated engine call is ~3%
// faster than a first one — more than the thin layers cost).
//
// Span names, outermost first; each one's parent is the line above it:
//
//	socket          a real POST /query on the keep-alive connection
//	server          Handler().ServeHTTP on an httptest recorder
//	sql.front       Executor.QueryUntracedContext (lex, shape lookup, rebind)
//	sql.run         PreparedQuery.RunContext of the same text
//	engine.select   PointCloud.SelectRegionRows          (parent sql.run)
//	engine.filter   PointCloud.FilterRows                (parent sql.run)
//	engine.group    PointCloud.Aggregate/GroupedAggregate (parent sql.run)
//	pyramid.query   pyramid.For + QueryRegionRun         (parent sql.run)
//	imprints        x/y CandidateRangesInto + intersect  (parent engine.select)
//	grid.refine     grid.Refine[Auto]Into                (parent engine.select)
//	append          PointCloud.AppendLAS                 (pan.append only)
//	refresh         append + the first bbox and hist step after it
const (
	spanSocket  = "socket"
	spanServer  = "server"
	spanFront   = "sql.front"
	spanRun     = "sql.run"
	spanSelect  = "engine.select"
	spanFilter  = "engine.filter"
	spanGroup   = "engine.group"
	spanPyramid = "pyramid.query"
	spanImprint = "imprints"
	spanGrid    = "grid.refine"
	spanAppend  = "append"
	spanRefresh = "refresh"
)

// span is one timed call: which boundary, for which script step, caused by
// which outer boundary. Times are nanoseconds since the traced run began.
type span struct {
	Name    string `json:"name"`
	Step    int    `json:"step"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (sp span) durUs() float64 { return float64(sp.EndNs-sp.StartNs) / 1e3 }

// spanStats reduces a span set to per-layer figures: for every span name
// the median duration, and the median self time — the span's duration
// minus the durations of the spans of the same step that name it as parent.
func spanStats(spans []span) (durUs, selfUs map[string]float64) {
	type key struct {
		name string
		step int
	}
	children := map[key]float64{}
	for _, sp := range spans {
		if sp.Parent != "" {
			children[key{sp.Parent, sp.Step}] += sp.durUs()
		}
	}
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for _, sp := range spans {
		durs[sp.Name] = append(durs[sp.Name], sp.durUs())
		selfs[sp.Name] = append(selfs[sp.Name], sp.durUs()-children[key{sp.Name, sp.Step}])
	}
	durUs, selfUs = map[string]float64{}, map[string]float64{}
	for name := range durs {
		durUs[name], selfUs[name] = median(durs[name]), median(selfs[name])
	}
	return durUs, selfUs
}

// tracer collects spans against one clock. A nil tracer times nothing.
type tracer struct {
	begin time.Time
	spans []span
}

// time runs f as the span (name, step) under parent.
func (t *tracer) time(name, parent string, step int, f func()) {
	if t == nil {
		f()
		return
	}
	start := time.Since(t.begin)
	f()
	t.spans = append(t.spans, span{Name: name, Step: step, Parent: parent,
		StartNs: start.Nanoseconds(), EndNs: time.Since(t.begin).Nanoseconds()})
}

// traced runs the first k steps of the script at every boundary and
// returns the per-layer metrics. in is the instance the warm-up ran
// against; its table is shared, its server is not used. With an append
// plan (pan.append) only the socket boundary is driven, appends and all:
// the inner boundaries cannot be replayed against data that moves.
func (s *session) traced(in *instance, k int, ap *appendPlan) (map[string]float64, []span, error) {
	m := map[string]float64{}
	tr := &tracer{begin: time.Now()}
	pc, pools := in.pc, poolsOutstanding()
	k = min(k, len(s.script))

	// The socket boundary's server. Its counters are the ones reported:
	// exactly k script statements go through its executor.
	sock, err := host(in.db)
	if err != nil {
		return nil, nil, err
	}
	defer sock.close() // error paths; the success path closes and checks below
	plan0 := pc.PlanCacheStats().Misses
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var respBytes int64
	if ap != nil {
		r := s.drive(sock, func(steps int, _ time.Duration) bool { return steps >= k }, ap)
		off := time.Since(tr.begin).Nanoseconds() - r.elapsed.Nanoseconds()
		for i, lat := range r.latMs {
			tr.spans = append(tr.spans, span{Name: spanSocket, Step: i,
				StartNs: off + r.startNs[i], EndNs: off + r.startNs[i] + int64(lat*1e6)})
		}
		for _, w := range r.writes {
			w.StartNs, w.EndNs = w.StartNs+off, w.EndNs+off
			tr.spans = append(tr.spans, w)
		}
		respBytes = r.bytes
		m["appends"] = float64(r.appends)
	} else {
		lay, err := newLayers(in.db, m)
		if err != nil {
			return nil, nil, err
		}
		defer lay.cancel()
		for i := 0; i < k; i++ {
			st := &s.script[i]
			if err := lay.engine(nil, s, i); err != nil { // untimed: warms the caches
				return nil, nil, err
			}
			if err := lay.engine(tr, s, i); err != nil {
				return nil, nil, err
			}
			if err := lay.sql(tr, st, i); err != nil {
				return nil, nil, err
			}
			req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(st.body))
			rec := httptest.NewRecorder()
			tr.time(spanServer, spanSocket, i, func() { lay.handler.ServeHTTP(rec, req) })
			if rec.Code != http.StatusOK || maphash.Bytes(s.hseed, head(rec.Body.Bytes())) != s.heads[i] {
				s.fail("handler step %d %q: status %d, reply differs from the verified one", i, st.sql, rec.Code)
			}
			var (
				status int
				body   []byte
			)
			tr.time(spanSocket, "", i, func() { status, body, err = sock.post(st.body) })
			answer := head(body)
			if err != nil || status != http.StatusOK || maphash.Bytes(s.hseed, answer) != s.heads[i] {
				s.fail("socket step %d %q: status %d, %v, or the reply differs from the verified one", i, st.sql, status, err)
			}
			respBytes += int64(len(answer))
		}
		lay.ratios(m, k)
		m["allocs_per_step"], err = allocsPerStep(in.db, s.script[:k])
		if err != nil {
			return nil, nil, err
		}
	}
	runtime.ReadMemStats(&m1)
	s.accounting(sock, pools)
	st := sock.srv.Stats()
	if err := sock.close(); err != nil {
		return nil, nil, fmt.Errorf("closing the traced server: %w", err)
	}

	durUs, selfUs := spanStats(tr.spans)
	m["socket_step_us"] = durUs[spanSocket]
	m["socket_self_us"] = selfUs[spanSocket]
	m["server_self_us"] = selfUs[spanServer]
	m["sql_front_self_us"] = selfUs[spanFront]
	m["sql_run_self_us"] = selfUs[spanRun]
	m["engine_select_us"] = durUs[spanSelect]
	m["imprints_us"] = durUs[spanImprint]
	m["grid_refine_us"] = durUs[spanGrid]
	m["engine_filter_us"] = durUs[spanFilter]
	m["engine_group_us"] = durUs[spanGroup]
	m["pyramid_query_us"] = durUs[spanPyramid]
	m["append_ms"] = durUs[spanAppend] / 1e3
	m["refresh_ms"] = durUs[spanRefresh] / 1e3
	if run := durUs[spanRun]; run > 0 {
		m["engine_share_of_run_pct"] = 100 * (run - selfUs[spanRun]) / run
	}

	m["resp_bytes_per_step"] = float64(respBytes) / float64(k)
	m["queries_ok"] = float64(st.QueriesOK)
	for _, n := range st.Errors {
		m["server_errors"] += float64(n)
	}
	m["front_hit_rate"] = float64(st.StmtCache.FrontHits) / float64(st.Requests)
	m["shape_hits"] = float64(st.StmtCache.ShapeHits)
	m["rebinds"] = float64(st.StmtCache.Rebinds)
	m["stmt_misses"] = float64(st.StmtCache.Misses)
	m["invalidations"] = float64(st.StmtCache.Invalidations)
	m["admitted"] = float64(st.Exec.Admitted)
	m["shed"] = float64(st.Exec.Shed)
	m["plan_cache_misses"] = float64(pc.PlanCacheStats().Misses - plan0)
	m["pool_outstanding"] = float64(poolsOutstanding() - pools)
	m["gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	m["gc_pause_ms_total"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	m["index_overhead_pct"] = 100 * float64(pc.IndexBytes()) / float64(pc.Bytes())

	// Pyramid counters are process-wide; the run's share is what moved
	// since it began (set-up and warm-up included — they repeat exactly too).
	py := pyramid.Snapshot()
	queries := float64(py.Queries - s.pyramid0.Queries)
	m["pyramid_queries"] = queries
	if queries > 0 {
		m["pyramid_interior_tiles"] = float64(py.InteriorTiles-s.pyramid0.InteriorTiles) / queries
		m["pyramid_boundary_tiles"] = float64(py.BoundaryTiles-s.pyramid0.BoundaryTiles) / queries
		m["pyramid_boundary_rows"] = float64(py.BoundaryRows-s.pyramid0.BoundaryRows) / queries
		// One forced rebuild, timed from outside: bump the epoch and ask for
		// the pyramid again. It adds one build and one drop to the counts.
		pc.InvalidateIndexes()
		t := time.Now()
		pyr, err := pyramid.For(nil, pc, histKey, histSpecs, histSig(pc), nil)
		if err != nil || pyr == nil {
			return nil, nil, fmt.Errorf("pyramid rebuild: %v", err)
		}
		m["pyramid_build_ms"] = ms(time.Since(t))
		pyr.Release()
		py = pyramid.Snapshot()
	}
	m["pyramid_builds"] = float64(py.Builds - s.pyramid0.Builds)
	m["pyramid_drops"] = float64(py.Drops - s.pyramid0.Drops)
	return m, tr.spans, nil
}

// The pan.hist statement as the SQL layer hands it to the pyramid.
const histKey = engine.ColClassification

var histSpecs = []engine.GroupedAggSpec{{Fn: engine.AggCount}, {Fn: engine.AggMin, Column: engine.ColZ}, {Fn: engine.AggMax, Column: engine.ColZ}}

func histSig(pc *engine.PointCloud) string {
	sig, _ := pyramid.Shape(pc, histKey, histSpecs)
	return sig
}

// layers holds what the inner boundaries run on: an executor each for the
// two SQL boundaries, a server for the handler boundary, and the harness's
// own copy of the coordinate imprints — the table keeps its own to itself,
// so the same ones are built over the same columns with the table's options.
type layers struct {
	pc        *engine.PointCloud
	imX, imY  *imprints.Imprints
	runExec   *sql.Executor
	frontExec *sql.Executor
	handler   http.Handler
	ctx       context.Context
	cancel    context.CancelFunc

	// scratch the engine replay reuses, and what it counted
	candX, candY, cand []colstore.Range
	matches            []int
	grouped            engine.GroupedResult
	sig                string
	examined, selected int
	exact, bulk        int
}

func newLayers(db *engine.DB, m map[string]float64) (*layers, error) {
	pc := pointCloud(db)
	t := time.Now()
	imX, err := imprints.Build(pc.X(), pc.ImprintOpts)
	if err != nil {
		return nil, err
	}
	imY, err := imprints.Build(pc.Y(), pc.ImprintOpts)
	if err != nil {
		return nil, err
	}
	m["imprints_build_ms"] = ms(time.Since(t))
	// A deadline far beyond the run: a context that has one takes the same
	// path through the admission gate as a served request.
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	return &layers{pc: pc, imX: imX, imY: imY, runExec: sql.New(db), frontExec: sql.New(db),
		handler: server.New(server.Config{DB: db}).Handler(), ctx: ctx, cancel: cancel, sig: histSig(pc)}, nil
}

// engine makes the engine, imprints, grid and pyramid calls the plan of
// step i's statement makes, with the step's literals; tr may be nil.
func (l *layers) engine(tr *tracer, s *session, i int) error {
	pc, st := l.pc, &s.script[i]
	var err error
	switch st.shape {
	case shapeThematic:
		var rows []int
		preds := []engine.ColumnPred{{Column: engine.ColZ, Op: engine.CmpBetween, Value: st.zlo, Value2: st.zhi}}
		tr.time(spanFilter, spanRun, i, func() { rows, err = pc.FilterRows(nil, preds, nil) })
		if err != nil {
			break
		}
		specs := []engine.GroupedAggSpec{{Fn: engine.AggCount}, {Fn: engine.AggAvg, Column: engine.ColZ}}
		tr.time(spanGroup, spanRun, i, func() { err = pc.GroupedAggregate(rows, histKey, specs, &l.grouped, nil) })
		engine.RecycleRows(rows)
	case shapeHist:
		region := grid.GeometryRegion{G: st.view.ToPolygon()}
		tr.time(spanPyramid, spanRun, i, func() {
			var pyr *pyramid.Pyramid
			if pyr, err = pyramid.For(nil, pc, histKey, histSpecs, l.sig, nil); err == nil && pyr != nil {
				_, _, err = pyr.QueryRegionRun(nil, region, histSpecs, &l.grouped)
				pyr.Release()
			}
		})
	default: // shapeBBox, shapeFetch: the selection, then its two halves
		region := grid.GeometryRegion{G: st.view.ToPolygon()}
		var rows []int
		tr.time(spanSelect, spanRun, i, func() { rows = pc.SelectRegionRows(region) })
		if st.shape == shapeBBox {
			var ground []int
			preds := []engine.ColumnPred{{Column: engine.ColClassification, Op: engine.CmpEQ, Value: groundClass}}
			tr.time(spanFilter, spanRun, i, func() { ground, err = pc.FilterRows(rows, preds, nil) })
			if err == nil && len(ground) > 0 {
				tr.time(spanGroup, spanRun, i, func() { _, err = pc.Aggregate(ground, engine.AggAvg, engine.ColZ, nil) })
			}
			engine.RecycleRows(ground)
		}
		env := region.Envelope()
		tr.time(spanImprint, spanSelect, i, func() {
			l.candX = l.imX.CandidateRangesInto(env.MinX, env.MaxX, l.candX[:0])
			l.candY = l.imY.CandidateRangesInto(env.MinY, env.MaxY, l.candY[:0])
			l.cand = colstore.IntersectRangesInto(l.candX, l.candY, l.cand[:0])
		})
		var gst grid.Stats
		tr.time(spanGrid, spanSelect, i, func() {
			if pc.Parallel { // the choice selectRegionRows makes
				l.matches, gst = grid.RefineAutoInto(pc.X(), pc.Y(), l.cand, region, pc.GridOpts, l.matches[:0])
			} else {
				l.matches, gst = grid.RefineInto(pc.X(), pc.Y(), l.cand, region, pc.GridOpts, l.matches[:0])
			}
		})
		if len(l.matches) != len(rows) {
			s.fail("step %d: replayed refinement selects %d rows, SelectRegionRows %d", i, len(l.matches), len(rows))
		}
		engine.RecycleRows(rows)
		if tr != nil {
			l.examined += colstore.RangesLen(l.cand)
			l.selected += len(l.matches)
			l.exact += gst.ExactTests
			l.bulk += gst.BulkAccepted
		}
	}
	if err != nil {
		return fmt.Errorf("engine replay of %q: %w", st.sql, err)
	}
	return nil
}

// ratios reports the useful-work ratios the engine replay counted.
func (l *layers) ratios(m map[string]float64, k int) {
	if l.selected == 0 {
		return
	}
	sel := float64(l.selected)
	m["select_rows_per_step"] = sel / float64(k)
	m["rows_examined_per_match"] = float64(l.examined) / sel
	m["exact_tests_per_match"] = float64(l.exact) / sel
	m["bulk_accept_share"] = float64(l.bulk) / sel
}

// sql times the two SQL boundaries: a prepared run of the step's text,
// then the text through the front door of another executor.
func (l *layers) sql(tr *tracer, st *step, i int) error {
	pq, err := l.runExec.Prepare(st.sql)
	if err != nil {
		return fmt.Errorf("prepare %q: %w", st.sql, err)
	}
	tr.time(spanRun, spanFront, i, func() { _, err = pq.RunContext(l.ctx) })
	if err != nil {
		return fmt.Errorf("run %q: %w", st.sql, err)
	}
	tr.time(spanFront, spanServer, i, func() { _, err = l.frontExec.QueryUntracedContext(l.ctx, st.sql) })
	if err != nil {
		return fmt.Errorf("query %q: %w", st.sql, err)
	}
	return nil
}

// allocsPerStep replays the steps through the SQL front door of a fresh
// executor with nothing else running and counts heap allocations.
func allocsPerStep(db *engine.DB, steps []step) (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	exec := sql.New(db)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range steps {
		if _, err := exec.QueryUntracedContext(ctx, steps[i].sql); err != nil {
			return 0, fmt.Errorf("query %q: %w", steps[i].sql, err)
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(steps)), nil
}
