package sql

import (
	"fmt"
	"testing"

	"gisnav/internal/geom"
	"gisnav/internal/synth"
)

// TestFrontCacheHitsOnRepeatedText checks the text→shape front cache: the
// second QueryContext of an identical text skips the lexer (FrontHits
// moves) and returns identical results through the cached plan.
func TestFrontCacheHitsOnRepeatedText(t *testing.T) {
	e, _, _, _ := testDB(t)
	q := "SELECT count(*) FROM ahn2 WHERE z > 10 AND classification = 2"
	first := mustQuery(t, e, q)
	if hits := e.StmtCacheStats().FrontHits; hits != 0 {
		t.Fatalf("front hits after first query = %d, want 0", hits)
	}
	second := mustQuery(t, e, q)
	st := e.StmtCacheStats()
	if st.FrontHits != 1 {
		t.Fatalf("front hits after repeat = %d, want 1", st.FrontHits)
	}
	if st.FrontEntries == 0 {
		t.Fatal("no front entries interned")
	}
	if first.Rows()[0][0].Num != second.Rows()[0][0].Num {
		t.Fatalf("front-cache hit changed the result: %v vs %v", first.Rows()[0][0], second.Rows()[0][0])
	}
	// A different text of the same shape must not front-hit (the front cache
	// is exact-text), but still shape-hits the statement cache.
	before := st
	mustQuery(t, e, "SELECT count(*) FROM ahn2 WHERE z > 12 AND classification = 2")
	st = e.StmtCacheStats()
	if st.FrontHits != before.FrontHits {
		t.Fatal("distinct text produced a front hit")
	}
	if st.ShapeHits != before.ShapeHits+1 {
		t.Fatalf("distinct text of same shape did not shape-hit: %+v", st)
	}
}

// TestFrontCacheObservesAppends pins the epoch contract across the front
// cache: a front-hit text still replans when the table epoch moved, so the
// lexer shortcut can never serve stale state.
func TestFrontCacheObservesAppends(t *testing.T) {
	e, pc, _, _ := testDB(t)
	q := "SELECT count(*) FROM ahn2"
	before := mustQuery(t, e, q).Rows()[0][0].Num
	mustQuery(t, e, q) // intern + warm

	region := geom.NewEnvelope(0, 0, 2000, 2000)
	terrain := synth.NewTerrain(82, region)
	extra := synth.GenerateTile(terrain, synth.TileSpec{Env: region, Density: 0.001, Seed: 12})
	pc.AppendLAS(extra)

	invBefore := e.StmtCacheStats().Invalidations
	after := mustQuery(t, e, q).Rows()[0][0].Num
	if after != before+float64(len(extra)) {
		t.Fatalf("front-hit query missed the append: %v -> %v (+%d points)", before, after, len(extra))
	}
	if e.StmtCacheStats().Invalidations != invBefore+1 {
		t.Fatal("append did not register as an epoch invalidation")
	}
}

// TestFrontCacheBounded checks the intern map resets past its bound instead
// of growing with every distinct text.
func TestFrontCacheBounded(t *testing.T) {
	e, _, _, _ := testDB(t)
	for i := 0; i < maxFrontEntries+10; i++ {
		mustQuery(t, e, fmt.Sprintf("SELECT count(*) FROM ahn2 WHERE z > %d", i))
	}
	if n := e.StmtCacheStats().FrontEntries; n > maxFrontEntries {
		t.Fatalf("front cache grew to %d entries past its bound %d", n, maxFrontEntries)
	}
}

// TestFrontHitOnEvictedStatement: the front and statement caches drop
// independently, so an interned text can outlive its statement. Re-issuing
// such a text re-lexes and re-plans it: one front hit, one statement-cache
// miss, and the result a fresh executor gives.
func TestFrontHitOnEvictedStatement(t *testing.T) {
	e, _, _, _ := testDB(t)
	// The alias is part of the shape, so every text is a distinct statement.
	text := func(i int) string { return fmt.Sprintf("SELECT count(*) AS n%d FROM osm WHERE id > 3", i) }
	for i := 0; i < maxCachedStmts+10; i++ {
		mustQuery(t, e, text(i))
	}
	before := e.StmtCacheStats()
	if before.Entries >= maxCachedStmts || before.FrontEntries <= maxCachedStmts {
		t.Fatalf("setup: %+v, want the statement cache dropped and the front cache intact", before)
	}
	got := mustQuery(t, e, text(0))
	st := e.StmtCacheStats()
	if st.FrontHits != before.FrontHits+1 || st.Misses != before.Misses+1 || st.Hits != before.Hits {
		t.Fatalf("re-issued evicted text: %+v -> %+v, want one front hit and one statement miss", before, st)
	}
	if st.FrontEntries > maxFrontEntries {
		t.Fatalf("front cache grew to %d entries past its bound %d", st.FrontEntries, maxFrontEntries)
	}
	want := mustQuery(t, New(e.db), text(0))
	if !resultsEqual(got, want) {
		t.Fatalf("evicted-statement result %v, fresh executor %v", got.Rows(), want.Rows())
	}
}
