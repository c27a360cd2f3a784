package pyramid

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"gisnav/internal/colstore"
	"gisnav/internal/engine"
)

// maxPyramids bounds the resident pyramid set: one pyramid per
// (table, shape) up to this many. The set is not a bounded.Map: past the
// bound it evicts one entry rather than dropping all.
const maxPyramids = 8

// refCount pins a pyramid: the cache holds one reference while the entry
// is resident, every pinned caller holds one. Pins are taken only under
// the cache mutex, so an entry whose count is 1 there is held by no query
// and may be extended in place; a pinned one is never written.
type refCount struct{ n atomic.Int64 }

func (r *refCount) init(n int64) { r.n.Store(n) }
func (r *refCount) inc()         { r.n.Add(1) }
func (r *refCount) dec()         { r.n.Add(-1) }
func (r *refCount) sole() bool   { return r.n.Load() == 1 }

// cacheKey identifies a pyramid: the table identity plus the shape
// signature (key column + canonical bank set).
type cacheKey struct {
	pc  *engine.PointCloud
	sig string
}

// pyramidCache is the bounded resident set. Stale entries (epoch moved
// past atEpoch) are settled lazily at lookup — the epoch contract's lazy
// invalidation arm: appends and InvalidateIndexes bump the table epoch,
// and the next pyramid lookup for that table extends the entry over the
// appended rows or discards it.
type pyramidCache struct {
	mu         sync.Mutex
	pyramids   map[cacheKey]*Pyramid
	hits       uint64
	misses     uint64
	builds     uint64
	extensions uint64
	drops      uint64
	evictions  uint64
}

var shared = pyramidCache{pyramids: map[cacheKey]*Pyramid{}}

// Query-side counters, separate from the cache mutex so the warm query
// path never contends on it.
var (
	disabled      atomic.Bool
	queries       atomic.Uint64
	interiorTiles atomic.Uint64
	boundaryTiles atomic.Uint64
	boundaryRows  atomic.Uint64
)

func countQuery(qs *QueryStats) {
	queries.Add(1)
	interiorTiles.Add(uint64(qs.Interior))
	boundaryTiles.Add(uint64(qs.Boundary))
	boundaryRows.Add(uint64(qs.BoundaryRows))
}

// Enabled reports whether pyramid routing is on (default true).
func Enabled() bool { return !disabled.Load() }

// SetEnabled toggles pyramid routing globally — tests use it to run the
// exact arm over identical plans.
func SetEnabled(on bool) { disabled.Store(!on) }

// lookup returns the resident pyramid for (pc, sig) pinned for the
// caller, or nil on miss. A resident entry whose epoch is stale is
// extended in place when it can be (extendable) and served as a hit;
// otherwise it is dropped here — the cache reference is released, a
// query still pinning it finishes on it — and the lookup misses. The
// extension runs under the cache mutex, under the caller's run; if it
// fails the torn entry is dropped and the error returned.
func (c *pyramidCache) lookup(run *engine.Run, pc *engine.PointCloud, sig string, epoch uint64, ex *engine.Explain) (*Pyramid, error) {
	k := cacheKey{pc: pc, sig: sig}
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.pyramids[k]
	if ok && p.atEpoch != epoch {
		var err error
		extended := false
		if p.extendable() {
			err = p.extend(run, epoch, ex)
			extended = err == nil
		}
		if extended {
			c.extensions++
		} else {
			delete(c.pyramids, k)
			c.drops++
			p.Release()
			ok = false
		}
		if err != nil {
			c.misses++
			return nil, err
		}
	}
	if !ok {
		c.misses++
		return nil, nil
	}
	c.hits++
	p.refs.inc()
	return p, nil
}

// insert publishes a freshly built pyramid and returns the entry the
// caller should use, pinned. Builds run outside the cache mutex, so two
// queries can race to build the same pyramid: the loser's copy is
// discarded here and the resident one returned. At the bound an
// arbitrary resident entry is evicted (a query pinning it finishes on it).
func (c *pyramidCache) insert(k cacheKey, p *Pyramid) *Pyramid {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.pyramids[k]; ok {
		if old.atEpoch == p.atEpoch {
			// Lost the build race; adopt the resident pyramid.
			old.refs.inc()
			p.Release()
			return old
		}
		delete(c.pyramids, k)
		c.drops++
		old.Release()
	}
	if len(c.pyramids) >= maxPyramids {
		for ek, ep := range c.pyramids {
			delete(c.pyramids, ek)
			c.evictions++
			ep.Release()
			break
		}
	}
	c.pyramids[k] = p
	c.builds++
	p.refs.inc() // the cache's reference
	return p
}

// stats snapshots the cache counters under the mutex.
func (c *pyramidCache) stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Pyramids:   len(c.pyramids),
		Hits:       c.hits,
		Misses:     c.misses,
		Builds:     c.builds,
		Extensions: c.extensions,
		Drops:      c.drops,
		Evictions:  c.evictions,
	}
}

// Stats is the pyramid subsystem's observability surface, exposed by the
// server's /stats endpoint and the bench harness.
type Stats struct {
	Pyramids      int    `json:"pyramids"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Builds        uint64 `json:"builds"`
	Extensions    uint64 `json:"extensions"` // stale entries extended over appended rows
	Drops         uint64 `json:"drops"`
	Evictions     uint64 `json:"evictions"`
	Queries       uint64 `json:"queries"`
	InteriorTiles uint64 `json:"interior_tiles"`
	BoundaryTiles uint64 `json:"boundary_tiles"`
	BoundaryRows  uint64 `json:"boundary_rows"`
}

// Snapshot returns current pyramid cache and query counters.
func Snapshot() Stats {
	s := shared.stats()
	s.Queries = queries.Load()
	s.InteriorTiles = interiorTiles.Load()
	s.BoundaryTiles = boundaryTiles.Load()
	s.BoundaryRows = boundaryRows.Load()
	return s
}

// Shape reports whether a grouped plan's (key, specs) shape is pyramid-
// eligible and returns its cache signature. Eligible shapes group by a
// bare u8 column and aggregate with count/min/max only — the merge-exact
// set (specsMergeExact's argument): those folds are bit-identical in any
// order, so pyramid answers match the serial exact arm exactly. sum/avg
// fold tile-order, not row-order, and stay on the exact arm. The
// signature is shape-derived only — plan rebinds keep it without
// re-deriving state.
func Shape(pc *engine.PointCloud, key string, specs []engine.GroupedAggSpec) (string, bool) {
	if pc == nil || key == "" || len(specs) == 0 || len(specs) > maxQuerySpecs {
		return "", false
	}
	if _, ok := pc.Column(key).(*colstore.U8Column); !ok {
		return "", false
	}
	for _, s := range specs {
		switch s.Fn {
		case engine.AggCount:
		case engine.AggMin, engine.AggMax:
			if s.Column == "" || pc.Column(s.Column) == nil {
				return "", false
			}
		default:
			return "", false
		}
	}
	return sigFor(key, specs), true
}

// canonicalBanks reduces a spec list to the distinct non-count bank
// specs in a canonical (column, fn) order — the bank layout a signature
// names.
func canonicalBanks(specs []engine.GroupedAggSpec) []engine.GroupedAggSpec {
	out := make([]engine.GroupedAggSpec, 0, len(specs))
	for _, s := range specs {
		if s.Fn == engine.AggCount {
			continue
		}
		dup := false
		for _, o := range out {
			if o.Fn == s.Fn && o.Column == s.Column {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Column != out[j].Column {
			return out[i].Column < out[j].Column
		}
		return out[i].Fn < out[j].Fn
	})
	return out
}

func sigFor(key string, specs []engine.GroupedAggSpec) string {
	banks := canonicalBanks(specs)
	parts := make([]string, 0, len(banks))
	for _, s := range banks {
		parts = append(parts, s.Fn.String()+":"+s.Column)
	}
	return key + "|" + strings.Join(parts, ",")
}

// For returns the pyramid for (pc, sig) pinned for the caller — the
// caller must Release it when done — building and publishing one when
// none is resident. A resident entry the table has only been appended to
// since is extended over the new rows instead of rebuilt when no query
// holds it, the new rows fit its extent and the base tiling would not
// change; otherwise it is rebuilt. A nil pyramid with nil error means the
// table declined (empty, degenerate extent, or routing disabled); callers
// fall back to the exact arm. The table epoch is captured before any
// other table state is read, per the epoch contract.
func For(run *engine.Run, pc *engine.PointCloud, key string, specs []engine.GroupedAggSpec, sig string, ex *engine.Explain) (*Pyramid, error) {
	if pc == nil || sig == "" || !Enabled() {
		return nil, nil
	}
	epoch := pc.Epoch()
	if p, err := shared.lookup(run, pc, sig, epoch, ex); p != nil || err != nil {
		return p, err
	}
	p := newPyramid(pc, epoch, key, specs)
	if p == nil {
		return nil, nil
	}
	if err := p.build(run, ex); err != nil {
		p.Release()
		return nil, err
	}
	return shared.insert(cacheKey{pc: pc, sig: sig}, p), nil
}
