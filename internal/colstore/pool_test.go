package colstore

import (
	"runtime"
	"testing"
	"weak"
)

// TestPoolForgetsDroppedBuffers pins that a buffer the pool handed out and
// later dropped (over budget here; a full shard takes the same path) is
// garbage: no vacated free-list slot past len may still reference it.
func TestPoolForgetsDroppedBuffers(t *testing.T) {
	p := &Pool[int]{MaxElts: 1 << 20}
	p.Put(make([]int, 0, 1024))
	b := p.Get(1024)
	w := weak.Make(&b[:1][0])
	p.MaxElts = 0
	p.Put(b)
	b = nil
	runtime.GC()
	if w.Value() != nil {
		t.Fatal("a buffer the pool dropped is still reachable")
	}
	runtime.KeepAlive(p)
}
