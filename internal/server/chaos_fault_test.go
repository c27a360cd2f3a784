//go:build faultinject

package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gisnav/internal/faultpoint"
)

// TestServerChaos is the serving layer's fault-injection workout: handler
// panics, execution panics, response-write failures, a saturated admission
// gate under slowed kernels, epoch bumps, and a mid-flight drain — all in
// one server lifetime. Afterwards the accounting must balance (every
// request answered under exactly one taxonomy code), the lifecycle
// counters must have moved the right way, and the pools must be level.
func TestServerChaos(t *testing.T) {
	defer faultpoint.Reset()
	srv, pc := newTestServer(t, Config{DefaultTimeout: time.Second})
	h := srv.Handler()
	before := poolOutstanding()

	// Phase 1: the handler faultpoint panics before parsing. The recover
	// in handleQuery must answer 500/internal instead of dropping the
	// request, and the drain gate must settle (leave still runs).
	faultpoint.Arm("server.handler", faultpoint.Action{Panic: "chaos: handler"})
	for i := 0; i < 3; i++ {
		rec := doQuery(h, testQuery)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("handler panic: status = %d, want 500", rec.Code)
		}
		if er := decodeError(t, rec); er.Error.Code != CodeInternal {
			t.Fatalf("handler panic: code = %q", er.Error.Code)
		}
	}
	faultpoint.Disarm("server.handler")

	// Phase 2: a panic deep in execution surfaces as *sql.QueryError →
	// 500/internal, and the lifecycle counts it.
	panickedBefore := srv.Exec().ExecStats().Panicked
	faultpoint.Arm("sql.run.filter", faultpoint.Action{Panic: "chaos: kernel"})
	rec := doQuery(h, testQuery)
	faultpoint.Disarm("sql.run.filter")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("execution panic: status = %d, want 500", rec.Code)
	}
	if er := decodeError(t, rec); er.Error.Code != CodeInternal {
		t.Fatalf("execution panic: code = %q", er.Error.Code)
	}
	if got := srv.Exec().ExecStats().Panicked; got != panickedBefore+1 {
		t.Fatalf("Panicked = %d, want %d", got, panickedBefore+1)
	}

	// Phase 3: a slowed kernel against a short client deadline → 504 with
	// the deadline code, pooled buffers already drained.
	faultpoint.Arm("engine.kernel.chunk", faultpoint.Action{Delay: 30 * time.Millisecond})
	rec = httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet,
		"/query?timeout_ms=10&q="+url.QueryEscape(testQuery), nil)
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("slow kernel + 10ms deadline: status = %d, want 504", rec.Code)
	}
	if er := decodeError(t, rec); er.Error.Code != CodeDeadline {
		t.Fatalf("slow kernel: code = %q", er.Error.Code)
	}
	faultpoint.Disarm("engine.kernel.chunk")

	// Phase 4: the response-write faultpoint fails after the status line.
	// Unreportable to the client by construction; the server must not
	// panic, the query still counts as answered, and the lost body is
	// counted — once, outside the accounting identity checked at the end.
	okBefore, lostBefore := srv.Stats().QueriesOK, srv.Stats().ResponseWriteErrors
	faultpoint.Arm("server.response.write", faultpoint.Action{Err: context.Canceled})
	rec = doQuery(h, testQuery)
	faultpoint.Disarm("server.response.write")
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
		t.Fatalf("write fault: status = %d, body = %q; want 200 with empty body", rec.Code, rec.Body.String())
	}
	if got := srv.Stats().QueriesOK; got != okBefore+1 {
		t.Fatalf("QueriesOK = %d, want %d", got, okBefore+1)
	}
	if got := srv.Stats().ResponseWriteErrors; got != lostBefore+1 {
		t.Fatalf("ResponseWriteErrors = %d, want %d", got, lostBefore+1)
	}

	// Phase 5: saturation and drain. A two-slot gate under kernels slowed
	// to ~2ms/chunk and twelve hammering clients must shed; a drain begun
	// mid-flight must answer every straggler and reject the rest.
	srv.Exec().SetMaxInFlight(2)
	shedBefore := srv.Exec().ExecStats().Shed
	faultpoint.Arm("engine.kernel.chunk", faultpoint.Action{Delay: 2 * time.Millisecond})

	stop := make(chan struct{})
	var clients, bumper sync.WaitGroup
	var overloaded503, withRetryHeader atomic.Uint64

	bumper.Add(1)
	go func() {
		defer bumper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			pc.InvalidateIndexes()
			time.Sleep(500 * time.Microsecond)
		}
	}()
	for r := 0; r < 12; r++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodGet,
					"/query?timeout_ms=250&q="+url.QueryEscape(testQuery), nil)
				h.ServeHTTP(rec, req)
				switch rec.Code {
				case http.StatusOK, http.StatusGatewayTimeout, StatusClientClosed:
				case http.StatusServiceUnavailable:
					overloaded503.Add(1)
					if rec.Header().Get("X-Retry-After-Ms") != "" {
						withRetryHeader.Add(1)
					}
				default:
					t.Errorf("unexpected status %d: %s", rec.Code, rec.Body.String())
				}
			}
		}()
	}

	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	err := srv.Shutdown(ctx)
	if err != nil && err != context.DeadlineExceeded {
		t.Fatalf("Shutdown: %v", err)
	}

	// The drain has completed: a late arrival is rejected as overloaded.
	rec = doQuery(h, testQuery)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain query = %d, want 503", rec.Code)
	}
	close(stop)
	clients.Wait()
	bumper.Wait()
	faultpoint.Reset()

	if got := srv.Exec().ExecStats().Shed; got == shedBefore {
		t.Fatal("two-slot gate under twelve clients never shed")
	}
	if overloaded503.Load() == 0 {
		t.Fatal("clients never observed a 503")
	}
	if overloaded503.Load() != withRetryHeader.Load() {
		t.Fatalf("503s = %d but only %d carried X-Retry-After-Ms",
			overloaded503.Load(), withRetryHeader.Load())
	}

	// The books balance: every request that entered the handler was
	// answered as a success or under exactly one taxonomy code, and every
	// pooled buffer any of them held is back.
	st := srv.Stats()
	var errs uint64
	for _, n := range st.Errors {
		errs += n
	}
	if st.Requests != st.QueriesOK+errs {
		t.Fatalf("request accounting: %d requests, %d ok + %d errors", st.Requests, st.QueriesOK, errs)
	}
	if st.ResponseWriteErrors != lostBefore+1 {
		t.Fatalf("ResponseWriteErrors = %d after the drain, want %d: only phase 4 lost a body", st.ResponseWriteErrors, lostBefore+1)
	}
	if drift := poolOutstanding() - before; drift != 0 {
		t.Fatalf("pool drift across chaos: %d buffers outstanding", drift)
	}
}
