package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"gisnav/internal/engine"
	"gisnav/internal/geom"
	"gisnav/internal/las"
	"gisnav/internal/sql"
	"gisnav/internal/synth"
)

// testQuery exercises the pooled path end to end: a region selection (a
// pooled selection vector from the grid) plus a column filter kernel.
const testQuery = `SELECT count(*) FROM ahn2
	WHERE ST_Contains(ST_MakeEnvelope(200, 200, 1200, 1200), ST_Point(x, y)) AND z >= 0`

// newTestServer builds a Server over the same small demo catalog the SQL
// tests use. The PointCloud rides along for epoch-bump stress.
func newTestServer(t *testing.T, cfg Config) (*Server, *engine.PointCloud) {
	t.Helper()
	region := geom.NewEnvelope(0, 0, 2000, 2000)
	terrain := synth.NewTerrain(81, region)
	pts := synth.GenerateTile(terrain, synth.TileSpec{Env: region, Density: 0.01, Seed: 6})
	pc := engine.NewPointCloud()
	pc.AppendLAS(pts)

	osmFeatures := synth.GenerateOSM(terrain, 2)
	osm := engine.NewVectorTable()
	for _, f := range osmFeatures {
		osm.Append(f.ID, f.Class, f.Name, f.Geom, nil)
	}
	ua := engine.NewVectorTable()
	for _, z := range synth.GenerateUrbanAtlas(terrain, synth.Motorways(osmFeatures), 10, 10, 3) {
		ua.Append(int64(z.ID), z.Code, z.Label, z.Geom, map[string]float64{"pop_density": z.PopDensity})
	}

	db := engine.NewDB()
	db.RegisterPointCloud("ahn2", pc)
	db.RegisterVector("osm", osm)
	db.RegisterVector("ua", ua)
	cfg.DB = db
	return New(cfg), pc
}

// poolOutstanding sums the outstanding counters of every engine pool; the
// drain tests assert it is level across a full serve-and-shutdown cycle.
func poolOutstanding() int64 {
	return engine.SelectionPoolStats().Outstanding +
		engine.RangePoolStats().Outstanding +
		engine.F64PoolStats().Outstanding
}

func doQuery(h http.Handler, q string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/query?q="+url.QueryEscape(q), nil)
	h.ServeHTTP(rec, req)
	return rec
}

func decodeError(t *testing.T, rec *httptest.ResponseRecorder) errorResponse {
	t.Helper()
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatalf("error body %q: %v", rec.Body.String(), err)
	}
	return er
}

func TestQueryGetAndPost(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	h := srv.Handler()

	rec := doQuery(h, testQuery)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /query = %d: %s", rec.Code, rec.Body.String())
	}
	var qr queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Columns) != 1 || len(qr.Rows) != 1 {
		t.Fatalf("shape = %d cols, %d rows", len(qr.Columns), len(qr.Rows))
	}
	n, ok := qr.Rows[0][0].(float64)
	if !ok || n <= 0 {
		t.Fatalf("count(*) = %v, want a positive number", qr.Rows[0][0])
	}

	rec = httptest.NewRecorder()
	body := strings.NewReader(`{"sql": "SELECT count(*) FROM ahn2", "timeout_ms": 5000}`)
	req := httptest.NewRequest(http.MethodPost, "/query", body)
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /query = %d: %s", rec.Code, rec.Body.String())
	}
}

func TestParseErrors(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxRequestBytes: 64})
	h := srv.Handler()

	cases := []struct {
		name string
		make func() *http.Request
	}{
		{"bad sql", func() *http.Request {
			return httptest.NewRequest(http.MethodGet, "/query?q=SELECT+FROM", nil)
		}},
		{"empty statement", func() *http.Request {
			return httptest.NewRequest(http.MethodGet, "/query", nil)
		}},
		{"bad timeout_ms", func() *http.Request {
			return httptest.NewRequest(http.MethodGet, "/query?q=SELECT+1&timeout_ms=soon", nil)
		}},
		{"negative timeout_ms", func() *http.Request {
			return httptest.NewRequest(http.MethodGet, "/query?q=SELECT+1&timeout_ms=-5", nil)
		}},
		{"bad header timeout", func() *http.Request {
			r := httptest.NewRequest(http.MethodGet, "/query?q=SELECT+1", nil)
			r.Header.Set("X-Query-Timeout-Ms", "never")
			return r
		}},
		{"method not allowed", func() *http.Request {
			return httptest.NewRequest(http.MethodPut, "/query", nil)
		}},
		{"oversized body", func() *http.Request {
			long := `{"sql": "SELECT count(*) FROM ahn2 WHERE ` + strings.Repeat("z > 0 AND ", 20) + ` z > 0"}`
			return httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(long))
		}},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, tc.make())
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, rec.Code)
		}
		if er := decodeError(t, rec); er.Error.Code != CodeParse {
			t.Errorf("%s: code = %q, want %q", tc.name, er.Error.Code, CodeParse)
		}
	}
}

// TestTimeoutClamp pins the deadline negotiation: client timeouts clamp to
// MaxTimeout, absence selects DefaultTimeout, and the header overrides the
// parameter.
func TestTimeoutClamp(t *testing.T) {
	srv, _ := newTestServer(t, Config{
		MaxTimeout:     2 * time.Second,
		DefaultTimeout: 500 * time.Millisecond,
	})

	req := httptest.NewRequest(http.MethodGet, "/query?q=SELECT+1&timeout_ms=3600000", nil)
	if _, timeout, err := srv.parseQueryRequest(req); err != nil || timeout != 2*time.Second {
		t.Fatalf("huge timeout_ms: timeout = %v, err = %v; want clamp to 2s", timeout, err)
	}

	req = httptest.NewRequest(http.MethodGet, "/query?q=SELECT+1", nil)
	if _, timeout, err := srv.parseQueryRequest(req); err != nil || timeout != 500*time.Millisecond {
		t.Fatalf("absent timeout: timeout = %v, err = %v; want default 500ms", timeout, err)
	}

	req = httptest.NewRequest(http.MethodGet, "/query?q=SELECT+1&timeout_ms=900", nil)
	req.Header.Set("X-Query-Timeout-Ms", "250")
	if _, timeout, err := srv.parseQueryRequest(req); err != nil || timeout != 250*time.Millisecond {
		t.Fatalf("header override: timeout = %v, err = %v; want 250ms", timeout, err)
	}
}

// TestCodeTaxonomy pins the stable error codes and their HTTP mapping — the
// contract retrying clients program against.
func TestCodeTaxonomy(t *testing.T) {
	cases := []struct {
		err    error
		code   string
		status int
	}{
		{sql.ErrOverloaded, CodeOverloaded, http.StatusServiceUnavailable},
		{context.DeadlineExceeded, CodeDeadline, http.StatusGatewayTimeout},
		{context.Canceled, CodeCancelled, StatusClientClosed},
		{&sql.QueryError{Panic: "boom"}, CodeInternal, http.StatusInternalServerError},
		// Classification order: a panic that wrapped a context error is
		// still an internal failure, not a client cancellation.
		{&sql.QueryError{Panic: context.Canceled}, CodeInternal, http.StatusInternalServerError},
		{errors.New("sql: no such column"), CodeParse, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if got := Code(tc.err); got != tc.code {
			t.Errorf("Code(%v) = %q, want %q", tc.err, got, tc.code)
		}
		if got := HTTPStatus(tc.code); got != tc.status {
			t.Errorf("HTTPStatus(%q) = %d, want %d", tc.code, got, tc.status)
		}
	}
}

// TestContextualErrors drives the deadline and cancellation codes through
// the real handler: a request arriving with an already-dead context must
// answer 504/499 with the matching taxonomy code.
func TestContextualErrors(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	h := srv.Handler()

	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/query?q="+url.QueryEscape(testQuery), nil)
	h.ServeHTTP(rec, req.WithContext(expired))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status = %d, want 504", rec.Code)
	}
	if er := decodeError(t, rec); er.Error.Code != CodeDeadline {
		t.Fatalf("expired deadline: code = %q", er.Error.Code)
	}

	cancelled, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodGet, "/query?q="+url.QueryEscape(testQuery), nil)
	h.ServeHTTP(rec, req.WithContext(cancelled))
	if rec.Code != StatusClientClosed {
		t.Fatalf("cancelled client: status = %d, want 499", rec.Code)
	}
	if er := decodeError(t, rec); er.Error.Code != CodeCancelled {
		t.Fatalf("cancelled client: code = %q", er.Error.Code)
	}
}

func TestReadyzFlipAndDrainReject(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	h := srv.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/readyz = %d before drain", rec.Code)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("idle Shutdown: %v", err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d after drain, want 503", rec.Code)
	}

	rec = doQuery(h, testQuery)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("drained /query = %d, want 503", rec.Code)
	}
	er := decodeError(t, rec)
	if er.Error.Code != CodeOverloaded {
		t.Fatalf("drained /query code = %q, want %q", er.Error.Code, CodeOverloaded)
	}
	if rec.Header().Get("Retry-After") == "" || rec.Header().Get("X-Retry-After-Ms") == "" {
		t.Fatal("overload response missing Retry-After / X-Retry-After-Ms headers")
	}
	if er.RetryAfterMs < 1 {
		t.Fatalf("retry_after_ms = %d, want >= 1", er.RetryAfterMs)
	}
	if st := srv.Stats(); st.DrainRejected != 1 || !st.Draining {
		t.Fatalf("stats after drain reject: %+v", st)
	}

	// Shutdown is idempotent: a second call on a drained server returns
	// immediately.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestRetryAfterTracksRunEstimate pins what makes the overload hint worth
// honouring: it lasts one to two typical runs — [est, 2·est) of the gate's
// run-latency estimate, floored at 1 ms, with 25 ms standing in on a cold
// gate — so shed clients that sleep it re-arrive spread out, after a slot
// has likely freed, and see fewer 503s than clients that retry at once.
func TestRetryAfterTracksRunEstimate(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	within := func(est time.Duration) {
		t.Helper()
		lo, hi := max(est, time.Millisecond), max(2*est, time.Millisecond)
		for i := 0; i < 50; i++ {
			if d := srv.retryAfter(); d < lo || d > hi {
				t.Fatalf("hint %v outside [%v, %v] for a run estimate of %v", d, lo, hi, est)
			}
		}
	}
	within(25 * time.Millisecond)

	heavy := `SELECT avg(z) FROM ahn2, ua WHERE ST_DWithin(ua.geom, ST_Point(ahn2.x, ahn2.y), 25)`
	for i := 0; i < 4; i++ {
		if rec := doQuery(srv.Handler(), heavy); rec.Code != http.StatusOK {
			t.Fatalf("query = %d: %s", rec.Code, rec.Body.String())
		}
	}
	est := time.Duration(srv.Exec().ExecStats().EWMARunNanos)
	if est <= 0 {
		t.Fatal("four runs left no run-latency estimate")
	}
	within(est)
}

func TestStatsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	h := srv.Handler()

	if rec := doQuery(h, testQuery); rec.Code != http.StatusOK {
		t.Fatalf("query = %d", rec.Code)
	}
	if rec := doQuery(h, "SELECT FROM nothing"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad query = %d", rec.Code)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats = %d", rec.Code)
	}
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 2 || st.QueriesOK != 1 {
		t.Fatalf("requests = %d, ok = %d", st.Requests, st.QueriesOK)
	}
	var errs uint64
	for _, n := range st.Errors {
		errs += n
	}
	// Every request that enters the handler is answered exactly once: as a
	// success or under exactly one taxonomy code.
	if st.Requests != st.QueriesOK+errs {
		t.Fatalf("request accounting: %d requests, %d ok + %d errors", st.Requests, st.QueriesOK, errs)
	}
	if st.Exec.Admitted < 1 {
		t.Fatalf("exec stats missing: %+v", st.Exec)
	}
	if _, ok := st.Pools["selection"]; !ok {
		t.Fatal("pool stats missing")
	}
	if _, ok := st.PlanCaches["ahn2"]; !ok {
		t.Fatal("plan cache stats missing for ahn2")
	}
}

// TestStatsShowAppendExtensions appends to a hosted table between viewport
// queries and watches /stats: the imprints extend instead of rebuilding,
// and so does the pyramid behind the histogram shape.
func TestStatsShowAppendExtensions(t *testing.T) {
	srv, pc := newTestServer(t, Config{})
	h := srv.Handler()
	stats := func() Stats {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var st Stats
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	hist := `SELECT classification, count(*), min(z), max(z) FROM ahn2
		WHERE ST_Contains(ST_MakeEnvelope(100, 100, 1500, 1400), ST_Point(x, y)) GROUP BY classification`
	steps := func() {
		t.Helper()
		for _, q := range []string{testQuery, hist} {
			if rec := doQuery(h, q); rec.Code != http.StatusOK {
				t.Fatalf("query = %d: %s", rec.Code, rec.Body.String())
			}
		}
	}
	steps()
	before := stats()
	if before.Indexes["ahn2"].ImprintBuilds != 1 {
		t.Fatalf("warm-up imprint builds = %+v, want 1", before.Indexes["ahn2"])
	}
	for i := 0; i < 3; i++ {
		pts := make([]las.Point, 300)
		for j := range pts {
			pts[j] = las.Point{X: 200 + float64(j), Y: 300 + float64(i), Z: 5, Classification: 2}
		}
		pc.AppendLAS(pts)
		steps()
	}
	after := stats()
	if got := after.Indexes["ahn2"]; got.ImprintBuilds != 1 || got.ImprintExtensions != before.Indexes["ahn2"].ImprintExtensions+3 {
		t.Fatalf("index stats after 3 appends: %+v, before %+v", got, before.Indexes["ahn2"])
	}
	if d := after.Pyramid.Extensions - before.Pyramid.Extensions; d != 3 || after.Pyramid.Builds != before.Pyramid.Builds {
		t.Fatalf("pyramid: %d extensions, %d builds over 3 appends; want 3, 0", d, after.Pyramid.Builds-before.Pyramid.Builds)
	}
}

// TestNonFiniteNumbersOnTheWire pins the wire encoding of numbers JSON
// cannot spell: ±Inf and NaN answer 200 as the strings "Infinity",
// "-Infinity" and "NaN" (they used to fail json.Marshal after the success
// counter had moved, producing a body-less 500 counted as queries_ok),
// and the exactly-once accounting identity holds afterwards.
func TestNonFiniteNumbersOnTheWire(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	h := srv.Handler()
	inf := "(z+1000)*1e308*1e308"
	for expr, want := range map[string]string{
		inf:             "Infinity",
		"0-" + inf:      "-Infinity",
		inf + "-" + inf: "NaN",
	} {
		rec := doQuery(h, "SELECT "+expr+" FROM ahn2 LIMIT 1")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d: %q", expr, rec.Code, rec.Body.String())
		}
		var qr queryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
			t.Fatalf("%s body %q: %v", expr, rec.Body.String(), err)
		}
		if len(qr.Rows) != 1 || qr.Rows[0][0] != want {
			t.Fatalf("%s rows = %v, want [[%q]]", expr, qr.Rows, want)
		}
	}
	st := srv.Stats()
	var errs uint64
	for _, n := range st.Errors {
		errs += n
	}
	if st.Requests != 3 || st.Requests != st.QueriesOK+errs {
		t.Fatalf("request accounting: %d requests, %d ok + %d errors", st.Requests, st.QueriesOK, errs)
	}
}

// brokenWriter is a client connection that dies mid-reply: Write accepts at
// most limit bytes of the body, then fails.
type brokenWriter struct {
	*httptest.ResponseRecorder
	limit int
}

func (w *brokenWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n, _ := w.ResponseRecorder.Write(p[:w.limit])
		return n, errors.New("connection reset by peer")
	}
	return w.ResponseRecorder.Write(p)
}

// TestResponseWriteErrorsCounted: a reply whose body write fails or falls
// short used to vanish without a trace. It is counted in
// response_write_errors, for success and error replies alike, and stays
// outside the identity requests == queries_ok + Σ errors — the request was
// already counted once when its body was built.
func TestResponseWriteErrorsCounted(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	h := srv.Handler()
	if rec := doQuery(h, testQuery); rec.Code != http.StatusOK {
		t.Fatalf("query = %d", rec.Code)
	}
	if got := srv.Stats().ResponseWriteErrors; got != 0 {
		t.Fatalf("ResponseWriteErrors = %d after a delivered reply, want 0", got)
	}
	for i, q := range []string{testQuery, "SELECT FROM nothing"} {
		w := &brokenWriter{ResponseRecorder: httptest.NewRecorder(), limit: 10}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/query?q="+url.QueryEscape(q), nil))
		if w.Body.Len() != 10 {
			t.Fatalf("%q: %d body bytes reached the client, want the 10 before the reset", q, w.Body.Len())
		}
		if got := srv.Stats().ResponseWriteErrors; got != uint64(i+1) {
			t.Fatalf("%q: ResponseWriteErrors = %d, want %d", q, got, i+1)
		}
	}
	st := srv.Stats()
	var errs uint64
	for _, n := range st.Errors {
		errs += n
	}
	if st.Requests != 3 || st.QueriesOK != 2 || st.Requests != st.QueriesOK+errs {
		t.Fatalf("request accounting: %d requests, %d ok + %d errors", st.Requests, st.QueriesOK, errs)
	}
}

// TestShutdownDrainZeroPoolDrift proves the headline drain contract: a
// shutdown racing a herd of in-flight queries answers every request and
// returns every pooled buffer — outstanding counts level across the cycle.
func TestShutdownDrainZeroPoolDrift(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	h := srv.Handler()
	before := poolOutstanding()

	const clients, perClient = 8, 4
	statuses := make(chan int, clients*perClient)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				statuses <- doQuery(h, testQuery).Code
			}
		}()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	close(statuses)

	var ok, rejected int
	for code := range statuses {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			rejected++
		case http.StatusGatewayTimeout, StatusClientClosed:
			// A straggler cancelled by the drain deadline — still answered.
		default:
			t.Errorf("unexpected status %d", code)
		}
	}
	if ok+rejected == 0 {
		t.Fatal("no request completed at all")
	}
	if drift := poolOutstanding() - before; drift != 0 {
		t.Fatalf("pool drift across drain: %d buffers outstanding", drift)
	}
	st := srv.Stats()
	var errs uint64
	for _, n := range st.Errors {
		errs += n
	}
	if st.Requests != st.QueriesOK+errs {
		t.Fatalf("request accounting: %d requests, %d ok + %d errors", st.Requests, st.QueriesOK, errs)
	}
}
