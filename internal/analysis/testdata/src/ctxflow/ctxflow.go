// Test fixture for the ctxflow analyzer: handlers (anything with a
// *Request parameter) must run queries through the *Context executor
// variants. Mirrors the net/http + sql shapes without importing them.
package ctxflow

// Context mirrors context.Context for the fixture's purposes.
type Context struct{}

// Request mirrors http.Request: its presence in a parameter list is what
// marks a function as a handler.
type Request struct{ ctx *Context }

func (r *Request) Context() *Context { return r.ctx }

// ResponseWriter mirrors http.ResponseWriter.
type ResponseWriter struct{}

// Result mirrors sql.Result.
type Result struct{}

// Executor mirrors sql.Executor's query surface.
type Executor struct{}

func (e *Executor) Query(src string) (*Result, error)                      { return nil, nil }
func (e *Executor) QueryContext(ctx *Context, src string) (*Result, error) { return nil, nil }
func (e *Executor) QueryUntracedContext(ctx *Context, src string) (*Result, error) {
	return nil, nil
}

// PreparedQuery mirrors sql.PreparedQuery's run surface.
type PreparedQuery struct{}

func (pq *PreparedQuery) Run() (*Result, error)                    { return nil, nil }
func (pq *PreparedQuery) RunContext(ctx *Context) (*Result, error) { return nil, nil }
func (pq *PreparedQuery) RunTraced() (*Result, error)              { return nil, nil }

// server mirrors the serving layer: an executor owned by the handler's
// receiver.
type server struct {
	exec *Executor
	pq   *PreparedQuery
}

// badHandlerMethod: the handler shape the serving layer uses, running a
// query without the request's context.
func (s *server) badHandlerMethod(w *ResponseWriter, r *Request) {
	s.exec.Query("SELECT count(*) FROM ahn2") // want `handler calls Executor.Query without a context`
}

// badPrepared: prepared statements are request-scoped work too.
func (s *server) badPrepared(w *ResponseWriter, r *Request) {
	s.pq.Run()       // want `handler calls PreparedQuery.Run without a context`
	s.pq.RunTraced() // want `handler calls PreparedQuery.RunTraced without a context`
}

// badNestedClosure: a goroutine spawned by a handler is still the
// request's work — detaching it from the context leaks the scan past the
// client's disconnect.
func (s *server) badNestedClosure(w *ResponseWriter, r *Request) {
	go func() {
		s.exec.Query("SELECT count(*) FROM ahn2") // want `handler calls Executor.Query without a context`
	}()
}

// badHandlerFunc: a handler closure (the HandleFunc registration shape) is
// checked like a named handler.
var badHandlerFunc = func(w *ResponseWriter, r *Request) {
	e := &Executor{}
	e.Query("SELECT 1") // want `handler calls Executor.Query without a context`
}

// goodHandler threads the request context through; nothing to flag.
func (s *server) goodHandler(w *ResponseWriter, r *Request) {
	s.exec.QueryUntracedContext(r.Context(), "SELECT count(*) FROM ahn2")
	s.pq.RunContext(r.Context())
}

// goodREPL is not a handler (no *Request parameter): interactive and batch
// callers may use the plain variants.
func goodREPL(e *Executor, pq *PreparedQuery) {
	e.Query("SELECT count(*) FROM ahn2")
	pq.Run()
	pq.RunTraced()
}
