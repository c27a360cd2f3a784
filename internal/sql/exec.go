// The SQL front door. The heavy lifting lives in the prepare/execute
// split: plan.go builds an immutable queryPlan per statement, run.go
// executes it. This file holds the Executor itself — two context-first
// entry points and nothing ctx-less, so a caller's deadline and
// cancellation always reach the kernels — and its statement cache (a
// bounded.Map), which memoises PreparedQuery objects by statement SHAPE —
// the auto-parameterised text plus literal type signature (params.go) — so
// the interactive workload's repeated statements skip parsing, binding,
// conjunct classification and kernel compilation even when every step
// changes the literal constants (the pan/zoom sweep). A shape hit binds
// the incoming literal vector to the cached plan skeleton; a miss prepares
// and inserts. Table epochs (captured in the plan, revalidated per run)
// keep cached plans from ever serving state bound to moved arrays.
package sql

import (
	"context"
	"sync/atomic"

	"gisnav/internal/bounded"
	"gisnav/internal/engine"
)

// Executor runs SQL statements against an engine catalog. Every entry
// point takes a context: QueryContext and QueryUntracedContext here,
// PreparedQuery.RunContext for a statement prepared once.
type Executor struct {
	db       *engine.DB
	stmts    *bounded.Map[string, *PreparedQuery]
	front    *bounded.Map[string, frontEntry]
	gate     gate
	parallel atomic.Int32

	// Statement-cache counters the two maps cannot see (StmtCacheStats),
	// and the planning passes run (buildPlan), which tests read.
	shapeHits     atomic.Uint64
	rebinds       atomic.Uint64
	invalidations atomic.Uint64
	builds        atomic.Uint64
}

// New returns an executor over db.
func New(db *engine.DB) *Executor {
	return &Executor{
		db:    db,
		stmts: bounded.New[string, *PreparedQuery](maxCachedStmts),
		front: bounded.New[string, frontEntry](maxFrontEntries),
	}
}

// SetParallelism caps the morsel fan-out degree of this executor's runs:
// n partitions at most per operator, 1 forcing every operator serial, and
// any n <= 0 selecting the default (defer to each table's auto-parallel
// setting) — the same clamping rule as SetMaxInFlight, so nonsensical
// arguments from config plumbing degrade to defaults instead of to an
// accidental serial-only or unbounded mode. The engine still clamps the
// effective degree per operator from the driving row count, so small
// selections stay serial whatever the cap (see engine.Run.SetMaxParallel).
// Safe to change while queries are in flight; in-flight runs keep the
// degree they started with.
func (e *Executor) SetParallelism(n int) {
	if n <= 0 {
		n = 0
	}
	e.parallel.Store(int32(n))
}

// QueryContext executes one SELECT statement through the two-level lookup,
// with the per-operator EXPLAIN trace in Result.Explain. The statement text
// is normalised into (shape, literal vector); a shape hit re-binds the
// cached plan skeleton to the new literals and runs (no parse beyond the
// lexer, no classification, no kernel compile — the trace's "plan" step
// says "rebound"); a miss parses, plans, inserts and runs ("planned").
// Epoch revalidation inside run guarantees an append between two calls is
// observed by the second. The run passes the admission gate
// (lifecycle.go), kernel loops poll ctx's done channel at block
// boundaries, and a fired context surfaces as ctx.Err() with every pooled
// buffer already recycled.
func (e *Executor) QueryContext(ctx context.Context, src string) (*Result, error) {
	return e.query(ctx, src, &engine.Explain{})
}

// QueryUntracedContext is QueryContext without the per-operator EXPLAIN
// trace: the same two-level shape lookup and rebind fast path, but the run
// allocates nothing for tracing — the entry point for latency-critical
// callers (what pcserve's /query handler and navbench drive).
func (e *Executor) QueryUntracedContext(ctx context.Context, src string) (*Result, error) {
	return e.query(ctx, src, nil)
}

// query is the shared two-level lookup behind both entry points, with a
// front cache short-circuiting the lexer: parameterize is a pure function
// of the statement text, so an exact text seen before maps straight to its
// interned (shape key, literal vector) without re-lexing — the remaining
// per-step overhead for very small viewports where the scan no longer
// dominates. The interned vector is shared across calls and must therefore
// never be mutated downstream (bounds hold it as it is).
// The two caches drop independently, so an interned text may name a
// statement that was evicted: it is re-lexed for the parser, exactly like
// a brand-new text, and counts one statement-cache miss.
func (e *Executor) query(ctx context.Context, src string, ex *engine.Explain) (*Result, error) {
	fe, interned := e.front.Get(src)
	var toks []token
	if !interned {
		var err error
		if fe.key, toks, fe.params, err = parameterize(src); err != nil {
			return nil, err
		}
	}
	if pq, ok := e.stmts.Get(fe.key); ok {
		if !interned {
			e.front.Put(src, fe)
		}
		return pq.lifecycleRun(ctx, ex, fe.params, originCached)
	}
	if interned {
		var err error
		if _, toks, _, err = parameterize(src); err != nil {
			return nil, err
		}
	}
	stmt, err := parseTokens(toks)
	if err != nil {
		return nil, err
	}
	pq, err := e.prepareBound(stmt, fe.params, ex)
	if err != nil {
		return nil, err
	}
	e.stmts.Put(fe.key, pq)
	if !interned {
		e.front.Put(src, fe)
	}
	return pq.lifecycleRun(ctx, ex, fe.params, originPlanned)
}

// --- statement cache --------------------------------------------------------

// maxCachedStmts bounds the statement cache. With literals normalised out
// of the key, a navigation session needs a handful of SHAPES no matter how
// many distinct texts it issues; an ad-hoc workload generating unbounded
// distinct shapes must still not grow the map forever, so past the bound
// the whole cache is dropped and rebuilt from the live working set (the
// same policy as the engine's kernel plan cache).
const maxCachedStmts = 256

// maxFrontEntries bounds the text→shape front cache. A navigation session
// revisits a bounded set of exact texts (zoom levels, bookmarked viewports);
// an unbounded ad-hoc stream must not grow the map, so past the bound it is
// dropped and rebuilt from the live working set, like the caches below it.
const maxFrontEntries = 512

// frontEntry is one interned parameterization: the shape key plus the
// literal vector extracted from exactly this text. The vector is shared
// with every lookup of the text — read-only by contract.
type frontEntry struct {
	key    string
	params []Value
}

// StmtCacheStats reports the statement cache's effectiveness counters.
//
// Hits counts shape-cache hits of any kind; ShapeHits is the subset whose
// literal vector differed from the one currently bound — exactly the
// queries the PR 3 exact-text cache would have missed (every pan/zoom step
// lands here). Rebinds counts successful skeleton re-binds; ShapeHits
// minus Rebinds is the (rare) classification-divergence replans.
// Invalidations counts epoch-forced replans of this executor's prepared
// statements (cached or standalone): each one is an append or a catalog
// re-registration observed by the SQL layer, the signal the invalidation
// tests assert on. FrontHits counts
// exact-text front-cache hits — queries that skipped the lexer, unless
// their statement had been evicted since.
type StmtCacheStats struct {
	Entries       int
	FrontEntries  int
	Hits          uint64
	Misses        uint64
	ShapeHits     uint64
	Rebinds       uint64
	Invalidations uint64
	FrontHits     uint64
}

// StmtCacheStats snapshots the executor's statement cache.
func (e *Executor) StmtCacheStats() StmtCacheStats {
	stmts, front := e.stmts.Stats(), e.front.Stats()
	return StmtCacheStats{
		Entries:       stmts.Entries,
		FrontEntries:  front.Entries,
		Hits:          stmts.Hits,
		Misses:        stmts.Misses,
		ShapeHits:     e.shapeHits.Load(),
		Rebinds:       e.rebinds.Load(),
		Invalidations: e.invalidations.Load(),
		FrontHits:     front.Hits,
	}
}
