// Package server is the HTTP/JSON serving layer over the SQL executor —
// the multi-user front door the ROADMAP's "millions of users" north star
// asks for, built for robustness under hostile conditions rather than as a
// thin endpoint:
//
//   - Deadline propagation: a client-supplied timeout (X-Query-Timeout-Ms
//     header or timeout_ms parameter) is clamped by the server-side
//     maximum and wired into Executor.QueryContext, so the admission
//     gate's EWMA doomed-deadline shedding works end-to-end and every
//     kernel loop below polls the request's cancellation.
//   - Overload resilience: admission-gate sheds (sql.ErrOverloaded) map to
//     503 with a jittered Retry-After hint derived from the gate's run
//     latency estimate, and every failure carries a stable machine-
//     readable code (errors.go) so clients can implement retry policies.
//     Panics isolated into *sql.QueryError surface as 500; the statement
//     is left as it was, since runs never write their plan.
//   - Graceful shutdown: Shutdown flips /readyz, rejects new queries,
//     drains in-flight requests up to the caller's deadline, then cancels
//     stragglers through their run contexts — every request is answered,
//     every pooled buffer returns (the lifecycle drain below guarantees
//     the latter; the chaos test proves both).
//   - Slow-client and abuse protection: HTTPServer configures read/
//     header/write timeouts, and request bodies are size-bounded.
//   - Observability: /healthz (process liveness), /readyz (accepting
//     queries), /stats (lifecycle counters, statement/plan/pool caches,
//     per-code error counts) as JSON.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gisnav/internal/engine"
	"gisnav/internal/faultpoint"
	"gisnav/internal/pyramid"
	"gisnav/internal/sql"
)

// Config carries the server's tunables. Zero values select the documented
// defaults; DB is required.
type Config struct {
	// DB is the engine catalog queries run against.
	DB *engine.DB
	// Exec runs the queries; built fresh over DB when nil. Passing one in
	// lets the embedding process share its executor (and its statement
	// cache and admission gate) with the serving layer.
	Exec *sql.Executor
	// MaxTimeout clamps client-supplied query timeouts (default 30s). A
	// client asking for more silently gets MaxTimeout — the server's
	// resources are the server's to bound.
	MaxTimeout time.Duration
	// DefaultTimeout applies when the client supplies no timeout (default
	// 10s). Every query runs under SOME deadline: an unbounded query from
	// a disconnected client would otherwise hold an admission slot forever.
	DefaultTimeout time.Duration
	// MaxRequestBytes bounds the request body (default 1 MiB).
	MaxRequestBytes int64
	// ReadTimeout / ReadHeaderTimeout / IdleTimeout configure the
	// slow-client protection of HTTPServer (defaults 15s / 5s / 60s). The
	// write timeout derives from MaxTimeout so a legitimate long query is
	// never cut mid-response.
	ReadTimeout       time.Duration
	ReadHeaderTimeout time.Duration
	IdleTimeout       time.Duration
}

// Server serves SQL over HTTP/JSON. Create with New, expose with Handler
// or HTTPServer, stop with Shutdown.
type Server struct {
	cfg  Config
	db   *engine.DB
	exec *sql.Executor
	mux  *http.ServeMux

	// runCtx parents every query context; cancelRuns fires it when the
	// drain deadline passes, cancelling stragglers through the lifecycle
	// layer's block-boundary polls.
	runCtx     context.Context
	cancelRuns context.CancelFunc

	// The drain gate: enter/leave track in-flight queries under mu, and
	// idle closes exactly once when draining with none in flight. A plain
	// mutex instead of a WaitGroup: Add-during-Wait on a zero counter is a
	// WaitGroup misuse, and drain racing new requests is this server's
	// normal shutdown mode, not an edge case.
	mu         sync.Mutex
	draining   bool
	inflight   int
	idleClosed bool
	idle       chan struct{}

	requests      atomic.Uint64
	queriesOK     atomic.Uint64
	drainRejected atomic.Uint64
	errCounts     [5]atomic.Uint64 // indexed by codeIndex

	// Replies whose body write failed, fell short or was aborted by the
	// response-write faultpoint. Outside the accounting identity
	// requests == queries_ok + Σ errors: each such request is in it already.
	responseWriteErrors atomic.Uint64
}

// New builds a Server over cfg, applying defaults.
func New(cfg Config) *Server {
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 30 * time.Second
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	if cfg.DefaultTimeout > cfg.MaxTimeout {
		cfg.DefaultTimeout = cfg.MaxTimeout
	}
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = 1 << 20
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 15 * time.Second
	}
	if cfg.ReadHeaderTimeout <= 0 {
		cfg.ReadHeaderTimeout = 5 * time.Second
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 60 * time.Second
	}
	exec := cfg.Exec
	if exec == nil {
		exec = sql.New(cfg.DB)
	}
	s := &Server{
		cfg:  cfg,
		db:   cfg.DB,
		exec: exec,
		idle: make(chan struct{}),
	}
	s.runCtx, s.cancelRuns = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/stats", s.handleStats)
	return s
}

// Exec returns the executor the server runs queries through.
func (s *Server) Exec() *sql.Executor { return s.exec }

// Handler returns the server's routing handler, for embedding under a
// caller-owned http.Server or test harness.
func (s *Server) Handler() http.Handler { return s.mux }

// HTTPServer returns an http.Server on addr with the slow-client
// protection configured: header/read timeouts bound how long a trickling
// client can hold a connection pre-handler, the write timeout covers the
// longest permitted query plus response-write slack, and header size is
// capped. Pair with Shutdown: stop the listener (http.Server.Shutdown),
// then drain queries (Server.Shutdown).
func (s *Server) HTTPServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.mux,
		ReadTimeout:       s.cfg.ReadTimeout,
		ReadHeaderTimeout: s.cfg.ReadHeaderTimeout,
		WriteTimeout:      s.cfg.MaxTimeout + 15*time.Second,
		IdleTimeout:       s.cfg.IdleTimeout,
		MaxHeaderBytes:    1 << 14,
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	d := s.draining
	s.mu.Unlock()
	return d
}

// Shutdown drains the server: new queries are rejected (503, and /readyz
// flips), in-flight queries run to completion until ctx's deadline, and
// stragglers past it are cancelled through their run contexts — their
// handlers still answer with a typed error, and the lifecycle layer
// returns their pooled buffers. Returns nil on a clean drain, ctx.Err()
// when stragglers had to be cancelled. Safe to call more than once; every
// call waits for quiescence.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	if s.inflight == 0 && !s.idleClosed {
		s.idleClosed = true
		close(s.idle)
	}
	s.mu.Unlock()
	select {
	case <-s.idle:
		return nil
	case <-ctx.Done():
		s.cancelRuns()
		<-s.idle
		return ctx.Err()
	}
}

// enter admits one request into the drain gate; false means the server is
// draining and the request must be rejected.
func (s *Server) enter() bool {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return false
	}
	s.inflight++
	s.mu.Unlock()
	return true
}

// leave retires one request, closing the idle gate when a drain is waiting
// on the last one.
func (s *Server) leave() {
	s.mu.Lock()
	s.inflight--
	if s.draining && s.inflight == 0 && !s.idleClosed {
		s.idleClosed = true
		close(s.idle)
	}
	s.mu.Unlock()
}

// --- query handling ---------------------------------------------------------

// queryRequest is the POST body of /query.
type queryRequest struct {
	SQL       string `json:"sql"`
	TimeoutMs int64  `json:"timeout_ms,omitempty"`
}

// errorResponse is the failure body of /query; Code is one of the stable
// taxonomy codes and RetryAfterMs rides along on overload sheds.
type errorResponse struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if !s.enter() {
		s.drainRejected.Add(1)
		s.writeError(w, CodeOverloaded, errors.New("server: draining"))
		return
	}
	defer s.leave()
	// Handler-level panic isolation: anything the query lifecycle didn't
	// already catch (it recovers execution panics into *sql.QueryError)
	// still answers this request instead of killing the connection without
	// a response. Declared after the leave defer so the drain gate always
	// settles last.
	defer func() {
		if p := recover(); p != nil {
			s.writeError(w, CodeInternal, fmt.Errorf("server: handler panicked: %v", p))
		}
	}()
	if err := faultpoint.Hit("server.handler"); err != nil {
		s.writeError(w, CodeInternal, err)
		return
	}
	src, timeout, err := s.parseQueryRequest(r)
	if err != nil {
		s.writeError(w, CodeParse, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	// A drain deadline passing mid-query cancels the straggler through the
	// same context the kernels poll.
	stop := context.AfterFunc(s.runCtx, cancel)
	defer stop()

	start := time.Now()
	res, err := s.exec.QueryUntracedContext(ctx, src)
	elapsed := time.Since(start)
	if err != nil {
		s.writeError(w, Code(err), err)
		return
	}
	// Encode the whole body before any counter or header moves, so a reply
	// is counted as a success only once it exists (a panic in the encoder
	// lands in the recover above as an internal error with a body).
	bp := replyBufs.Get().(*[]byte)
	data := appendReply((*bp)[:0], res, elapsed.Microseconds())
	s.queriesOK.Add(1)
	s.writeJSON(w, http.StatusOK, data)
	if cap(data) <= maxPooledReply {
		*bp = data
		replyBufs.Put(bp)
	}
}

// parseQueryRequest extracts the statement and effective timeout: GET reads
// the q and timeout_ms parameters, POST a size-bounded JSON body; the
// X-Query-Timeout-Ms header overrides either. Client timeouts are clamped
// to (0, MaxTimeout]; absent means DefaultTimeout.
func (s *Server) parseQueryRequest(r *http.Request) (src string, timeout time.Duration, err error) {
	var ms int64
	switch r.Method {
	case http.MethodGet:
		src = r.URL.Query().Get("q")
		if v := r.URL.Query().Get("timeout_ms"); v != "" {
			ms, err = strconv.ParseInt(v, 10, 64)
			if err != nil {
				return "", 0, fmt.Errorf("server: bad timeout_ms %q", v)
			}
		}
	case http.MethodPost:
		var req queryRequest
		body := http.MaxBytesReader(nil, r.Body, s.cfg.MaxRequestBytes)
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			return "", 0, fmt.Errorf("server: bad request body: %w", err)
		}
		src, ms = req.SQL, req.TimeoutMs
	default:
		return "", 0, fmt.Errorf("server: method %s not allowed on /query", r.Method)
	}
	if h := r.Header.Get("X-Query-Timeout-Ms"); h != "" {
		ms, err = strconv.ParseInt(h, 10, 64)
		if err != nil {
			return "", 0, fmt.Errorf("server: bad X-Query-Timeout-Ms %q", h)
		}
	}
	if src == "" {
		return "", 0, errors.New("server: empty statement (use ?q= or a JSON body with \"sql\")")
	}
	timeout = s.cfg.DefaultTimeout
	if ms != 0 {
		if ms < 0 {
			return "", 0, fmt.Errorf("server: negative timeout_ms %d", ms)
		}
		timeout = time.Duration(ms) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	return src, timeout, nil
}

// retryAfter derives the overload backoff hint: one typical run (by then a
// slot has likely freed) plus uniform jitter of another run, so a stampede
// of shed clients re-arrives spread over [1x, 2x) of the latency estimate
// instead of as a synchronized second stampede. Clamped to [1ms, 5s]; with
// no estimate yet (cold gate) a flat 25ms stands in.
func (s *Server) retryAfter() time.Duration {
	est := time.Duration(s.exec.ExecStats().EWMARunNanos)
	if est <= 0 {
		est = 25 * time.Millisecond
	}
	d := est + time.Duration(rand.Int63n(int64(est)))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// codeIndex maps a stable error code to its counter slot.
func codeIndex(code string) int {
	switch code {
	case CodeOverloaded:
		return 0
	case CodeDeadline:
		return 1
	case CodeCancelled:
		return 2
	case CodeParse:
		return 3
	default:
		return 4
	}
}

// writeError answers the request with the taxonomy code's status and JSON
// body, attaching the Retry-After backoff hint to overload sheds (both the
// standard header, in whole seconds, and X-Retry-After-Ms for clients that
// can back off at millisecond granularity).
func (s *Server) writeError(w http.ResponseWriter, code string, err error) {
	s.errCounts[codeIndex(code)].Add(1)
	var resp errorResponse
	resp.Error.Code = code
	resp.Error.Message = err.Error()
	if code == CodeOverloaded {
		ra := s.retryAfter()
		resp.RetryAfterMs = ra.Milliseconds()
		if resp.RetryAfterMs < 1 {
			resp.RetryAfterMs = 1
		}
		secs := int64((ra + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		w.Header().Set("X-Retry-After-Ms", strconv.FormatInt(resp.RetryAfterMs, 10))
	}
	data, _ := json.Marshal(&resp) // strings and integers only: cannot fail
	s.writeJSON(w, HTTPStatus(code), append(data, '\n'))
}

// writeJSON writes one already-encoded JSON response in a single Write
// under an explicit Content-Length: callers encode first, so by the time a
// header moves the body is known to exist, and net/http never chunks it.
// The response-write faultpoint sits between status and body so the chaos
// tests can stall or fail the write path itself; a failed or short write
// past WriteHeader is unreportable to the client and only counted
// (response_write_errors — the request itself was already counted once, as
// a success or under its error code).
func (s *Server) writeJSON(w http.ResponseWriter, status int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(status)
	if err := faultpoint.Hit("server.response.write"); err != nil {
		s.responseWriteErrors.Add(1)
		return
	}
	if n, err := w.Write(data); err != nil || n < len(data) {
		s.responseWriteErrors.Add(1)
	}
}

// --- observability endpoints ------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n"))
		return
	}
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ready\n"))
}

// Stats is the /stats payload: the serving layer's own counters plus every
// observability surface of the layers below it.
type Stats struct {
	Draining      bool              `json:"draining"`
	Requests      uint64            `json:"requests"`
	QueriesOK     uint64            `json:"queries_ok"`
	DrainRejected uint64            `json:"drain_rejected"`
	Errors        map[string]uint64 `json:"errors"`
	// ResponseWriteErrors counts replies whose body never fully reached the
	// socket; it stands outside requests == queries_ok + Σ errors.
	ResponseWriteErrors uint64 `json:"response_write_errors"`

	Exec       sql.ExecStats                    `json:"exec"`
	StmtCache  sql.StmtCacheStats               `json:"stmt_cache"`
	PlanCaches map[string]engine.PlanCacheStats `json:"plan_caches"`
	// Indexes counts each point-cloud table's imprint builds and append
	// extensions; Pyramid.Extensions is the pyramid's side of the append
	// path.
	Indexes map[string]engine.IndexStats `json:"indexes"`
	Pools   map[string]engine.PoolStats  `json:"pools"`
	Pyramid pyramid.Stats                `json:"pyramid"`
}

// Stats snapshots the server.
func (s *Server) Stats() Stats {
	st := Stats{
		Draining:            s.Draining(),
		Requests:            s.requests.Load(),
		QueriesOK:           s.queriesOK.Load(),
		DrainRejected:       s.drainRejected.Load(),
		ResponseWriteErrors: s.responseWriteErrors.Load(),
		Errors: map[string]uint64{
			CodeOverloaded: s.errCounts[0].Load(),
			CodeDeadline:   s.errCounts[1].Load(),
			CodeCancelled:  s.errCounts[2].Load(),
			CodeParse:      s.errCounts[3].Load(),
			CodeInternal:   s.errCounts[4].Load(),
		},
		Exec:       s.exec.ExecStats(),
		StmtCache:  s.exec.StmtCacheStats(),
		PlanCaches: map[string]engine.PlanCacheStats{},
		Indexes:    map[string]engine.IndexStats{},
		Pools: map[string]engine.PoolStats{
			"selection": engine.SelectionPoolStats(),
			"range":     engine.RangePoolStats(),
			"f64":       engine.F64PoolStats(),
		},
		Pyramid: pyramid.Snapshot(),
	}
	for _, name := range s.db.Tables() {
		if pc, err := s.db.PointCloud(name); err == nil {
			st.PlanCaches[name] = pc.PlanCacheStats()
			st.Indexes[name] = pc.IndexStats()
		}
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "application/json")
	data, err := json.MarshalIndent(&st, "", "  ")
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	w.Write(append(data, '\n'))
}
