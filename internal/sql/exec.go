// The SQL front door. The heavy lifting lives in the prepare/execute
// split: plan.go builds an immutable queryPlan per statement, run.go
// executes it. This file holds the Executor itself and its bounded
// statement cache, which memoises PreparedQuery objects by statement SHAPE —
// the auto-parameterised text plus literal type signature (params.go) — so
// the interactive workload's repeated statements skip parsing, binding,
// conjunct classification and kernel compilation even when every step
// changes the literal constants (the pan/zoom sweep). A shape hit re-binds
// the cached plan skeleton to the incoming literal vector; a miss prepares
// and inserts. Table epochs (captured in the plan, revalidated per run)
// keep cached plans from ever serving state bound to moved arrays.
package sql

import (
	"context"
	"sync"
	"sync/atomic"

	"gisnav/internal/engine"
)

// Executor runs SQL statements against an engine catalog.
type Executor struct {
	db       *engine.DB
	stmts    stmtCache
	gate     gate
	parallel atomic.Int32
}

// New returns an executor over db.
func New(db *engine.DB) *Executor { return &Executor{db: db} }

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

// Query executes one SELECT statement through the two-level lookup: the
// statement text is normalised into (shape, literal vector); a shape hit
// re-binds the cached plan skeleton to the new literals and runs (no parse
// beyond the lexer, no classification, no kernel compile — the EXPLAIN
// trace's "plan" step says "rebound"); a miss parses, plans, inserts and
// runs ("planned"). Epoch revalidation inside run guarantees an append
// between two calls is observed by the second.
func (e *Executor) Query(src string) (*Result, error) {
	return e.query(context.Background(), src, &engine.Explain{})
}

// QueryContext is Query under a context: the run passes the admission
// gate (lifecycle.go), kernel loops poll ctx's done channel at block
// boundaries, and a fired context surfaces as ctx.Err() with every pooled
// buffer already recycled. A context without deadline or cancel behaves
// exactly like Query.
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

// query is the shared two-level lookup behind Query and QueryUntracedContext, with
// a front cache short-circuiting the lexer: parameterize is a pure function
// of the statement text, so an exact text seen before maps straight to its
// interned (shape key, literal vector) without re-lexing — the remaining
// per-step overhead for very small viewports where the scan no longer
// dominates. The interned vector is shared across calls and must therefore
// never be mutated downstream (rebind copies out of it; plans copy it).
func (e *Executor) query(ctx context.Context, src string, ex *engine.Explain) (*Result, error) {
	if key, params, ok := e.stmts.frontLookup(src); ok {
		if pq := e.stmts.lookup(key); pq != nil {
			return pq.lifecycleRun(ctx, ex, params, originCached)
		}
		// Interned text whose statement was evicted: fall through and
		// re-lex, the same path as a brand-new text.
	}
	key, toks, params, err := parameterize(src)
	if err != nil {
		return nil, err
	}
	if pq := e.stmts.lookup(key); pq != nil {
		e.stmts.frontInsert(src, key, params)
		return pq.lifecycleRun(ctx, ex, params, originCached)
	}
	stmt, err := parseTokens(toks)
	if err != nil {
		return nil, err
	}
	pq, err := e.prepareBound(stmt, params)
	if err != nil {
		return nil, err
	}
	e.stmts.insert(key, pq)
	e.stmts.frontInsert(src, key, params)
	return pq.lifecycleRun(ctx, ex, params, originPlanned)
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

// stmtCache memoises PreparedQuery objects by statement shape, fronted by
// the text→shape intern map (see Executor.query).
type stmtCache struct {
	mu    sync.Mutex
	stmts map[string]*PreparedQuery
	front map[string]frontEntry

	hits          atomic.Uint64
	misses        atomic.Uint64
	shapeHits     atomic.Uint64
	rebinds       atomic.Uint64
	invalidations atomic.Uint64
	frontHits     atomic.Uint64
}

// frontLookup returns the interned shape of an exact statement text.
func (c *stmtCache) frontLookup(src string) (key string, params []Value, ok bool) {
	c.mu.Lock()
	fe, ok := c.front[src]
	c.mu.Unlock()
	if ok {
		c.frontHits.Add(1)
	}
	return fe.key, fe.params, ok
}

// frontInsert interns one text's parameterization, resetting the map past
// its bound. Only successfully parameterized texts reach here, so errors
// are never interned.
func (c *stmtCache) frontInsert(src, key string, params []Value) {
	c.mu.Lock()
	if c.front == nil || len(c.front) >= maxFrontEntries {
		c.front = make(map[string]frontEntry, 16)
	}
	c.front[src] = frontEntry{key: key, params: params}
	c.mu.Unlock()
}

// lookup returns the cached statement for the shape key, counting hit/miss.
func (c *stmtCache) lookup(key string) *PreparedQuery {
	c.mu.Lock()
	pq := c.stmts[key]
	c.mu.Unlock()
	if pq != nil {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return pq
}

// insert stores pq under the shape key, resetting the cache when it outgrew
// its bound. Parse and plan errors are never cached. The front cache drops
// with the statement cache: its entries stay valid (parameterize is pure),
// but texts whose statements were evicted would otherwise pin dead interns.
func (c *stmtCache) insert(key string, pq *PreparedQuery) {
	c.mu.Lock()
	if c.stmts == nil || len(c.stmts) >= maxCachedStmts {
		c.stmts = make(map[string]*PreparedQuery, 16)
		c.front = nil
	}
	c.stmts[key] = pq
	c.mu.Unlock()
}

// StmtCacheStats reports the statement cache's effectiveness counters.
//
// Hits counts shape-cache hits of any kind; ShapeHits is the subset whose
// literal vector differed from the one currently bound — exactly the
// queries the PR 3 exact-text cache would have missed (every pan/zoom step
// lands here). Rebinds counts successful skeleton re-binds; ShapeHits
// minus Rebinds is the (rare) classification-divergence replans.
// Invalidations counts epoch-forced replans of this executor's prepared
// statements (cached or standalone): each one is an append observed by the
// SQL layer, the signal the invalidation tests assert on. FrontHits counts
// exact-text front-cache hits — queries that skipped the lexer entirely.
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
	c := &e.stmts
	c.mu.Lock()
	entries := len(c.stmts)
	frontEntries := len(c.front)
	c.mu.Unlock()
	return StmtCacheStats{
		Entries:       entries,
		FrontEntries:  frontEntries,
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		ShapeHits:     c.shapeHits.Load(),
		Rebinds:       c.rebinds.Load(),
		Invalidations: c.invalidations.Load(),
		FrontHits:     c.frontHits.Load(),
	}
}
