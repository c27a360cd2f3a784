package rtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gisnav/internal/geom"
)

// randomItems scatters n small boxes over a 1000×1000 field.
func randomItems(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		x := rng.Float64() * 1000
		y := rng.Float64() * 1000
		items[i] = Item{
			ID:  i,
			Env: geom.NewEnvelope(x, y, x+rng.Float64()*20, y+rng.Float64()*20),
		}
	}
	return items
}

// naiveSearch is the reference evaluator.
func naiveSearch(items []Item, q geom.Envelope) []int {
	var ids []int
	for _, it := range items {
		if it.Env.Intersects(q) {
			ids = append(ids, it.ID)
		}
	}
	return ids
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// height counts the tree's levels down its first branch (STR packing keeps
// every leaf at the same depth).
func height(t *Tree) int {
	if t.root == nil {
		return 0
	}
	h := 1
	for n := t.root; len(n.children) > 0; n = n.children[0] {
		h++
	}
	return h
}

func TestEmptyTree(t *testing.T) {
	tr := BuildSTR(nil, 0)
	if tr.Len() != 0 || tr.root != nil {
		t.Fatal("empty tree should be empty")
	}
	if ids := tr.SearchIDs(geom.NewEnvelope(0, 0, 1, 1)); ids != nil {
		t.Fatal("empty tree search should be empty")
	}
	if tr.NodesTouched(geom.NewEnvelope(0, 0, 1, 1)) != 0 {
		t.Fatal("empty tree touches no nodes")
	}
}

func TestSingleItem(t *testing.T) {
	tr := BuildSTR([]Item{{ID: 7, Env: geom.NewEnvelope(1, 1, 2, 2)}}, 0)
	if tr.Len() != 1 || height(tr) != 1 {
		t.Fatalf("len=%d height=%d", tr.Len(), height(tr))
	}
	if ids := tr.SearchIDs(geom.NewEnvelope(0, 0, 3, 3)); len(ids) != 1 || ids[0] != 7 {
		t.Fatalf("search = %v", ids)
	}
	if ids := tr.SearchIDs(geom.NewEnvelope(5, 5, 6, 6)); ids != nil {
		t.Fatalf("miss should be empty, got %v", ids)
	}
}

func TestSearchMatchesNaive(t *testing.T) {
	items := randomItems(5000, 1)
	tr := BuildSTR(items, 0)
	if tr.Len() != 5000 {
		t.Fatal("count wrong")
	}
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 200; iter++ {
		x := rng.Float64() * 1000
		y := rng.Float64() * 1000
		q := geom.NewEnvelope(x, y, x+rng.Float64()*150, y+rng.Float64()*150)
		got := tr.SearchIDs(q)
		want := naiveSearch(items, q)
		if !equalIDs(got, want) {
			t.Fatalf("query %v: got %d ids, want %d", q, len(got), len(want))
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	items := randomItems(1000, 3)
	tr := BuildSTR(items, 0)
	visits := 0
	tr.Search(geom.NewEnvelope(0, 0, 1000, 1000), func(Item) bool {
		visits++
		return visits < 5
	})
	if visits != 5 {
		t.Fatalf("early stop visited %d", visits)
	}
}

func TestEmptyQuery(t *testing.T) {
	tr := BuildSTR(randomItems(100, 4), 0)
	if ids := tr.SearchIDs(geom.EmptyEnvelope()); ids != nil {
		t.Fatal("empty query should match nothing")
	}
}

func TestFanoutAndHeight(t *testing.T) {
	items := randomItems(1000, 5)
	small := BuildSTR(items, 4)
	big := BuildSTR(items, 64)
	if height(small) <= height(big) {
		t.Fatalf("fanout 4 height %d should exceed fanout 64 height %d",
			height(small), height(big))
	}
	// Both stay correct.
	q := geom.NewEnvelope(200, 200, 400, 400)
	if !equalIDs(small.SearchIDs(q), big.SearchIDs(q)) {
		t.Fatal("fanout changed results")
	}
}

func TestPruningEffectiveness(t *testing.T) {
	items := randomItems(10000, 6)
	tr := BuildSTR(items, 0)
	// A tiny query must touch a small fraction of the nodes.
	q := geom.NewEnvelope(500, 500, 510, 510)
	full := tr.NodesTouched(geom.NewEnvelope(0, 0, 1000, 1000))
	tiny := tr.NodesTouched(q)
	if tiny*10 > full {
		t.Fatalf("tiny query touched %d of %d nodes — no pruning", tiny, full)
	}
}

func TestBoundsCoverAllItems(t *testing.T) {
	items := randomItems(500, 7)
	tr := BuildSTR(items, 0)
	b := tr.root.env
	for _, it := range items {
		if !b.ContainsEnvelope(it.Env) {
			t.Fatalf("bounds %v does not cover %v", b, it.Env)
		}
	}
}

// Property: STR search equals naive search for arbitrary item sets.
func TestQuickSearchEquivalence(t *testing.T) {
	f := func(seeds []uint16, qx, qy, qw, qh uint16) bool {
		if len(seeds) == 0 {
			return true
		}
		items := make([]Item, len(seeds))
		for i, s := range seeds {
			x := float64(s % 500)
			y := float64((s / 7) % 500)
			items[i] = Item{ID: i, Env: geom.NewEnvelope(x, y, x+float64(s%30), y+float64(s%17))}
		}
		tr := BuildSTR(items, 8)
		q := geom.NewEnvelope(float64(qx%500), float64(qy%500),
			float64(qx%500)+float64(qw%200), float64(qy%500)+float64(qh%200))
		return equalIDs(tr.SearchIDs(q), naiveSearch(items, q))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateEnvelopes(t *testing.T) {
	// Many items sharing one envelope (multiple features on the same spot).
	env := geom.NewEnvelope(10, 10, 20, 20)
	items := make([]Item, 100)
	for i := range items {
		items[i] = Item{ID: i, Env: env}
	}
	tr := BuildSTR(items, 8)
	ids := tr.SearchIDs(geom.NewEnvelope(15, 15, 16, 16))
	if len(ids) != 100 {
		t.Fatalf("duplicates lost: %d", len(ids))
	}
}
