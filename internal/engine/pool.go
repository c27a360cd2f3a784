// Pooled query buffers. The engine's steady-state query path — the paper's
// repeated pan/zoom workload — must allocate nothing: selection vectors and
// imprint candidate-range lists come from striped free-list pools
// (colstore.Pool; the grid package pools its refinement scratch the same
// way) and return to them when the query finishes.
package engine

import (
	"gisnav/internal/colstore"
)

// rowPool recycles selection vectors; rangePool recycles imprint
// candidate-range lists; f64Pool recycles float64 scratch (grouped-aggregate
// accumulator banks, hash-table key stores). Budgets assume 8-byte row ids
// (256 MiB), 16-byte ranges (128 MiB) and 8-byte floats (128 MiB).
var (
	rowPool   = colstore.Pool[int]{MaxElts: 1 << 25}
	rangePool = colstore.Pool[colstore.Range]{MaxElts: 1 << 23}
	f64Pool   = colstore.Pool[float64]{MaxElts: 1 << 24}
)

// getRowBuf acquires a pooled selection vector sized for capHint rows.
func getRowBuf(capHint int) []int { return rowPool.Get(capHint) }

// AcquireRows draws an empty selection vector from the engine's pool — the
// exported counterpart of the internal buffer getter for layers above the
// engine (the SQL executor's vector-table row sets). Pair every acquire
// with RecycleRows.
func AcquireRows(capHint int) []int { return getRowBuf(capHint) }

// RecycleRows returns a selection vector produced by FilterRows{,Run} or
// SelectRegionRows{,Run} (or drawn through AcquireRows) to the engine's
// pool. The caller must not touch rows afterwards; under a run, recycle
// through run.RecycleRows instead so the release list untracks it.
// Recycling is optional — vectors that are never returned are simply
// garbage collected.
func RecycleRows(rows []int) { rowPool.Put(rows) }

// getRangeBuf acquires a pooled candidate-range buffer.
func getRangeBuf(capHint int) []colstore.Range { return rangePool.Get(capHint) }

// getF64Buf acquires a pooled float64 scratch buffer (grouped-aggregate
// accumulator banks and hash key stores). Pooled buffers carry stale
// contents: callers must initialise every element they read.
func getF64Buf(capHint int) []float64 { return f64Pool.Get(capHint) }

// recycleF64 returns a float64 scratch buffer to its pool.
func recycleF64(b []float64) { f64Pool.Put(b) }

// AcquireF64 draws a float64 scratch buffer from the engine's pool — the
// exported counterpart of getF64Buf for layers above the engine (the
// pyramid's pre-aggregate banks). Pooled buffers carry stale contents:
// callers must initialise every element they read. Pair every acquire with
// RecycleF64; on a query path, register through Run.TrackF64 instead.
func AcquireF64(capHint int) []float64 { return getF64Buf(capHint) }

// RecycleF64 returns a float64 buffer drawn through AcquireF64 to the
// engine's pool. The caller must not touch b afterwards. Like RecycleRows,
// recycling is optional — buffers never returned are garbage collected —
// but owners of long-lived banks (the pyramid cache) recycle on drop so
// the pool's Outstanding counter stays balanced across build/invalidate
// cycles.
func RecycleF64(b []float64) { f64Pool.Put(b) }

// PoolStats is a snapshot of one buffer pool, for diagnostics and the
// pool-accounting regression tests.
type PoolStats struct {
	// Free is the number of buffers currently retained across all shards.
	Free int
	// FreeElts is their summed capacity in elements.
	FreeElts int
	// Outstanding is gets minus recycles since process start. Code that
	// recycles every buffer it draws keeps this balanced; a positive drift
	// across a closed workload indicates a leaked pooled buffer.
	Outstanding int64
}

// SelectionPoolStats snapshots the selection-vector pool.
func SelectionPoolStats() PoolStats {
	free, elts, outstanding := rowPool.Stats()
	return PoolStats{Free: free, FreeElts: int(elts), Outstanding: outstanding}
}

// RangePoolStats snapshots the candidate-range pool.
func RangePoolStats() PoolStats {
	free, elts, outstanding := rangePool.Stats()
	return PoolStats{Free: free, FreeElts: int(elts), Outstanding: outstanding}
}

// F64PoolStats snapshots the float64 scratch pool (grouped-aggregate
// accumulator banks).
func F64PoolStats() PoolStats {
	free, elts, outstanding := f64Pool.Stats()
	return PoolStats{Free: free, FreeElts: int(elts), Outstanding: outstanding}
}
