package bounded

import (
	"sync"
	"testing"
)

// TestMapDropsAtBound: the map never holds more than its bound, and the
// insert that meets a full map drops every older entry.
func TestMapDropsAtBound(t *testing.T) {
	c := New[int, int](4)
	for i := 0; i < 4; i++ {
		c.Put(i, i*10)
	}
	if n := c.Stats().Entries; n != 4 {
		t.Fatalf("entries = %d after 4 puts, want 4", n)
	}
	c.Put(4, 40)
	if n := c.Stats().Entries; n != 1 {
		t.Fatalf("entries = %d after the put past the bound, want 1 (drop-all)", n)
	}
	for i := 0; i < 4; i++ {
		if _, ok := c.Get(i); ok {
			t.Fatalf("key %d survived the drop", i)
		}
	}
	if v, ok := c.Get(4); !ok || v != 40 {
		t.Fatalf("Get(4) = %d, %v; want 40, true", v, ok)
	}
	for i := 0; i < 100; i++ {
		c.Put(i, i)
		if n := c.Stats().Entries; n > 4 {
			t.Fatalf("entries = %d, bound is 4", n)
		}
	}
}

// TestMapCountsHitsAndMisses: every Get counts exactly one hit or one miss,
// and Reset empties the map without resetting the counters.
func TestMapCountsHitsAndMisses(t *testing.T) {
	c := New[string, int](8)
	c.Get("a")
	c.Put("a", 1)
	c.Get("a")
	c.Get("a")
	c.Get("b")
	if st := c.Stats(); st != (Stats{Entries: 1, Hits: 2, Misses: 2}) {
		t.Fatalf("stats = %+v, want 1 entry, 2 hits, 2 misses", st)
	}
	c.Reset()
	if _, ok := c.Get("a"); ok {
		t.Fatal("Get after Reset hit")
	}
	if st := c.Stats(); st != (Stats{Entries: 0, Hits: 2, Misses: 3}) {
		t.Fatalf("stats after Reset = %+v, want 0 entries, 2 hits, 3 misses", st)
	}
	c.Put("a", 2)
	if v, ok := c.Get("a"); !ok || v != 2 {
		t.Fatalf("Get after re-Put = %d, %v; want 2, true", v, ok)
	}
}

// TestMapConcurrent runs Get, Put, Reset and Stats from several goroutines;
// under -race it pins the locking, and the counters must balance.
func TestMapConcurrent(t *testing.T) {
	c := New[int, int](16)
	const workers, ops = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := (w*ops + i) % 40
				if v, ok := c.Get(k); ok && v != k {
					t.Errorf("Get(%d) = %d", k, v)
					return
				}
				c.Put(k, k)
				if i%500 == 0 {
					c.Reset()
				}
				if n := c.Stats().Entries; n > 16 {
					t.Errorf("entries = %d, bound is 16", n)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Hits+st.Misses != workers*ops {
		t.Fatalf("hits %d + misses %d != %d gets", st.Hits, st.Misses, workers*ops)
	}
}
