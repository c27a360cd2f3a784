// Package bounded is the one cache policy of the query path: a map guarded
// by a read-write mutex that, once it holds its bound, is dropped whole and
// rebuilt from the live working set by the inserts that follow, with
// cumulative hit and miss counters. The statement cache, the text→shape
// front cache and the engine's kernel plan cache are all one Map each; a
// new drop-and-rebuild cache should be one too, so the bound and the
// counters come with the type instead of by convention.
package bounded

import (
	"sync"
	"sync/atomic"
)

// Map is a bounded memo map. Its methods are safe for concurrent use.
type Map[K comparable, V any] struct {
	max    int
	mu     sync.RWMutex
	m      map[K]V
	hits   atomic.Uint64
	misses atomic.Uint64
}

// New returns an empty map holding at most max entries.
func New[K comparable, V any](max int) *Map[K, V] {
	return &Map[K, V]{max: max}
}

// Get returns the value stored under k, counting a hit or a miss.
func (c *Map[K, V]) Get(k K) (V, bool) {
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Put stores v under k. A map already at its bound is dropped first.
func (c *Map[K, V]) Put(k K, v V) {
	c.mu.Lock()
	if c.m == nil || len(c.m) >= c.max {
		c.m = make(map[K]V, 16)
	}
	c.m[k] = v
	c.mu.Unlock()
}

// Reset drops every entry. The hit and miss counters keep counting.
func (c *Map[K, V]) Reset() {
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
}

// Stats is a map's occupancy and its hit and miss counts since New —
// cumulative across drops and resets.
type Stats struct {
	Entries int
	Hits    uint64
	Misses  uint64
}

// Stats snapshots the map.
func (c *Map[K, V]) Stats() Stats {
	c.mu.RLock()
	n := len(c.m)
	c.mu.RUnlock()
	return Stats{Entries: n, Hits: c.hits.Load(), Misses: c.misses.Load()}
}
