package sql

import (
	"context"
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// Auto-parameterisation tests: shape extraction, the shape-keyed statement
// cache with skeleton rebinding, and the rebind ≡ fresh-Prepare equivalence
// property (including NaN/±Inf literal vectors, which previously bypassed
// the engine plan cache entirely).

func TestParameterizeShapes(t *testing.T) {
	shapeOf := func(src string) string {
		t.Helper()
		key, _, _, err := parameterize(src)
		if err != nil {
			t.Fatalf("parameterize %q: %v", src, err)
		}
		return key
	}

	// Literals in WHERE and LIMIT normalise away: a pan/zoom step shares its
	// predecessor's shape, whitespace included.
	a := shapeOf("SELECT count(*) FROM ahn2 WHERE z BETWEEN 1 AND 5 LIMIT 10")
	b := shapeOf("SELECT count(*)  FROM ahn2\n WHERE z BETWEEN 2.5 AND 99 LIMIT 3")
	if a != b {
		t.Fatalf("same shape produced different keys:\n%s\n%s", a, b)
	}

	// Literal TYPE is part of the shape: a string constant routes conjunct
	// classification differently from a numeric one.
	s1 := shapeOf("SELECT count(*) FROM osm WHERE class = 'motorway'")
	s2 := shapeOf("SELECT count(*) FROM osm WHERE class = 5")
	if s1 == s2 {
		t.Fatalf("string and numeric literals must not share a shape: %s", s1)
	}

	// SELECT-list literals stay inline — they name output columns.
	p1 := shapeOf("SELECT z + 10 FROM ahn2")
	p2 := shapeOf("SELECT z + 20 FROM ahn2")
	if p1 == p2 {
		t.Fatal("SELECT-list literals must stay part of the shape")
	}

	// The extracted vector is ordered and typed.
	_, _, params, err := parameterize("SELECT x FROM ahn2 WHERE z > 4 AND name = 'a' LIMIT 7")
	if err != nil {
		t.Fatal(err)
	}
	if len(params) != 3 || params[0].Num != 4 || params[1].Str != "a" || params[2].Num != 7 {
		t.Fatalf("literal vector = %+v", params)
	}
}

// TestShapeCacheRebinds drives the tentpole end to end: a pan/zoom sweep of
// distinct bbox literals over one statement shape must hit the cache,
// rebind instead of replanning, keep the engine kernel-compile count flat,
// and agree with a cold executor on every step.
func TestShapeCacheRebinds(t *testing.T) {
	e, pc, _, _ := testDB(t)
	q := func(x0, y0 float64) string {
		return fmt.Sprintf(`SELECT count(*) FROM ahn2
			WHERE ST_Contains(ST_MakeEnvelope(%g, %g, %g, %g), ST_Point(x, y))
			  AND classification >= 0 AND z - z < 1`, x0, y0, x0+700, y0+700)
	}

	// Warm the shape: first query plans, fills the engine plan cache.
	mustQuery(t, e, q(0, 0))
	s0 := e.StmtCacheStats()
	missesBefore := pc.PlanCacheStats().Misses

	const steps = 12
	for i := 1; i <= steps; i++ {
		res := mustQuery(t, e, q(float64(i)*90, float64(i)*60))
		fresh, _, _ := testDBQuery(t, q(float64(i)*90, float64(i)*60))
		if res.Rows()[0][0].Num != fresh {
			t.Fatalf("step %d: rebound count %v, cold count %v", i, res.Rows()[0][0].Num, fresh)
		}
	}

	s1 := e.StmtCacheStats()
	if s1.Entries != 1 {
		t.Fatalf("a literal sweep must occupy one shape entry, got %d", s1.Entries)
	}
	if s1.Hits != s0.Hits+steps {
		t.Fatalf("every sweep step should hit the shape cache: %+v -> %+v", s0, s1)
	}
	if s1.ShapeHits != s0.ShapeHits+steps || s1.Rebinds != s0.Rebinds+steps {
		t.Fatalf("every sweep step should rebind: %+v -> %+v", s0, s1)
	}
	if got := pc.PlanCacheStats().Misses; got != missesBefore {
		t.Fatalf("sweep recompiled kernels: engine plan-cache misses %d -> %d", missesBefore, got)
	}
}

// testDBQuery runs q on a fresh database replica (same seed) and returns the
// single numeric result — the cold-planner reference arm.
func testDBQuery(t *testing.T, q string) (float64, *Executor, *Result) {
	t.Helper()
	e, _, _, _ := testDB(t)
	res := mustQuery(t, e, q)
	return res.Rows()[0][0].Num, e, res
}

// TestExplainMarksPlanOrigin: the trace's leading "plan" step must say
// planned on a cold shape, rebound when new literals bind into the cached
// skeleton, and cached when the text repeats verbatim.
func TestExplainMarksPlanOrigin(t *testing.T) {
	e, _, _, _ := testDB(t)
	origin := func(res *Result) string {
		t.Helper()
		for _, s := range res.Explain.Steps {
			if s.Op == "plan" {
				return s.Detail
			}
		}
		t.Fatalf("no plan step in trace: %+v", res.Explain.Steps)
		return ""
	}
	r1 := mustQuery(t, e, "SELECT count(*) FROM ahn2 WHERE z > 10")
	if got := origin(r1); !strings.HasPrefix(got, "planned") {
		t.Fatalf("cold query origin = %q, want planned", got)
	}
	r2 := mustQuery(t, e, "SELECT count(*) FROM ahn2 WHERE z > 20")
	if got := origin(r2); !strings.HasPrefix(got, "rebound") {
		t.Fatalf("new-literal query origin = %q, want rebound", got)
	}
	r3 := mustQuery(t, e, "SELECT count(*) FROM ahn2 WHERE z > 20")
	if got := origin(r3); !strings.HasPrefix(got, "cached") {
		t.Fatalf("same-text query origin = %q, want cached", got)
	}
}

// TestLimitRebind: LIMIT is a parameter slot — the same shape serves
// different counts, and invalid parameterised counts still error.
func TestLimitRebind(t *testing.T) {
	e, _, _, _ := testDB(t)
	r2 := mustQuery(t, e, "SELECT x FROM ahn2 WHERE z > -1e18 LIMIT 2")
	r5 := mustQuery(t, e, "SELECT x FROM ahn2 WHERE z > -1e18 LIMIT 5")
	if r2.Len() != 2 || r5.Len() != 5 {
		t.Fatalf("limits = %d, %d; want 2, 5", r2.Len(), r5.Len())
	}
	if e.StmtCacheStats().Entries != 1 {
		t.Fatal("LIMIT variants should share one shape")
	}
	if _, err := e.QueryContext(context.Background(), "SELECT x FROM ahn2 LIMIT 3.5"); err == nil || !strings.Contains(err.Error(), "LIMIT") {
		t.Fatalf("fractional LIMIT should error, got %v", err)
	}
}

// TestStringParamReroute: class constants rebind through the dictionary
// route, and a numeric literal in the same position is a different shape.
func TestStringParamReroute(t *testing.T) {
	e, _, _, _ := testDB(t)
	m := mustQuery(t, e, "SELECT count(*) FROM osm WHERE class = 'motorway'")
	r := mustQuery(t, e, "SELECT count(*) FROM osm WHERE class = 'residential'")
	if m.Rows()[0][0].Num == 0 {
		t.Fatal("no motorways in demo data; test is vacuous")
	}
	if m.Rows()[0][0].Num == r.Rows()[0][0].Num {
		t.Fatal("rebinding the class constant did not change the result")
	}
	st := e.StmtCacheStats()
	if st.Entries != 1 || st.Rebinds == 0 {
		t.Fatalf("class sweep should rebind one shape: %+v", st)
	}
	// Numeric literal in the class slot: separate shape, interpreter route —
	// which rejects the string/number comparison exactly as it always did.
	if _, err := e.QueryContext(context.Background(), "SELECT count(*) FROM osm WHERE class = 5"); err == nil ||
		!strings.Contains(err.Error(), "cannot compare") {
		t.Fatalf("class = 5 should keep the interpreter's type error, got %v", err)
	}
}

// TestShapeKeyQuoteEscaping: an inline string literal containing escaped
// quotes must not collide with a differently-structured statement whose
// rendered key would otherwise read the same (the doubled-single-quote
// escape is re-applied
// when the key is built).
func TestShapeKeyQuoteEscaping(t *testing.T) {
	k1, _, _, err := parameterize("SELECT 'x' AS a , 'y' FROM t")
	if err != nil {
		t.Fatal(err)
	}
	// One literal whose CONTENT is "x' AS a , 'y" via '' escapes.
	k2, _, _, err := parameterize("SELECT 'x'' AS a , ''y' FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatalf("distinct statements collided on shape key %q", k1)
	}
}

// TestRebindFailureLeavesPlanConsistent: a rebind that fails (here the join
// distance stops being a constant: 40/0 errors at classification) must not
// half-mutate the cached plan. Both the failing query and its repeat must
// error — a repeat silently serving the PREVIOUS distance would mean the
// plan committed the new params without the new constants.
func TestRebindFailureLeavesPlanConsistent(t *testing.T) {
	e, _, _, _ := testDB(t)
	good := `SELECT count(*) FROM ahn2, ua
		WHERE ST_DWithin(ua.geom, ST_Point(ahn2.x, ahn2.y), 40/2)`
	bad := `SELECT count(*) FROM ahn2, ua
		WHERE ST_DWithin(ua.geom, ST_Point(ahn2.x, ahn2.y), 40/0)`

	want := mustQuery(t, e, good).Rows()[0][0].Num
	for i := 0; i < 2; i++ {
		if _, err := e.QueryContext(context.Background(), bad); err == nil {
			t.Fatalf("attempt %d: 40/0 join distance should error, got success", i+1)
		}
	}
	// The cached skeleton still serves the good vector correctly.
	if got := mustQuery(t, e, good).Rows()[0][0].Num; got != want {
		t.Fatalf("plan corrupted after failed rebind: count %v, want %v", got, want)
	}
}

// --- rebind ≡ fresh-Prepare property -----------------------------------------

// valueEq compares result values with NaN treated as equal to itself.
func valueEq(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindNum:
		return a.Num == b.Num || (math.IsNaN(a.Num) && math.IsNaN(b.Num))
	case KindStr:
		return a.Str == b.Str
	case KindBool:
		return a.Bool == b.Bool
	default:
		return true
	}
}

func resultsEqual(a, b *Result) bool { return a.Len() == b.Len() && isPrefix(a, b) }

// isPrefix reports whether a's rows are the first a.Len() rows of b.
func isPrefix(a, b *Result) bool {
	if a.Len() > b.Len() || len(a.Cols) != len(b.Cols) {
		return false
	}
	for j := range a.Cols {
		for i := 0; i < a.Len(); i++ {
			if !valueEq(a.Cols[j].Value(i), b.Cols[j].Value(i)) {
				return false
			}
		}
	}
	return true
}

// TestRebindMatchesFreshPrepare is the satellite property test: for random
// WHERE shapes and random literal vectors — including NaN and ±Inf, which
// the old engine plan cache refused to key — running a REBOUND plan
// skeleton must be indistinguishable from a fresh Prepare of the same shape
// with the same vector: same rows, same errors.
func TestRebindMatchesFreshPrepare(t *testing.T) {
	e, _, _, _ := testDB(t)
	rng := rand.New(rand.NewSource(42))

	// Conjunct templates: verbs is the %g count, slots the number of
	// literals parameterize extracts (inline constants like the 1 in
	// "z / c > 1" extract too).
	templates := []struct {
		text         string
		verbs, slots int
	}{
		{"z < %g", 1, 1},
		{"intensity BETWEEN %g AND %g", 2, 2},
		{"classification = %g", 1, 1},
		{"ST_Contains(ST_MakeEnvelope(%g, %g, %g, %g), ST_Point(x, y))", 4, 4},
		{"z - 2*intensity > %g", 1, 2}, // the inline 2 extracts too
		{"z / %g > 1", 1, 2},           // parameterised denominator: runtime-checked
		{"abs(z - %g) <= %g", 2, 2},
		{"NOT (scan_angle >= %g)", 1, 1},
	}
	randLit := func() float64 {
		switch rng.Intn(10) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		case 3:
			return 0
		case 4:
			return float64(rng.Intn(2000)) + 0.5
		default:
			return (rng.Float64() - 0.5) * 4000
		}
	}

	// Select lists: the one-row aggregates, and two projections whose items
	// compile to vector kernels at plan time (SELECT-list literals stay
	// inline, so they add no slots) — the second with a fallible item that
	// must raise "division by zero" on the rebound and the fresh plan alike
	// whenever the bound WHERE lets a classification-2 row through.
	heads := []string{
		"SELECT count(*), min(z), max(intensity)",
		"SELECT x, z - 2*intensity, abs(z) / 4, intensity % 7, gps_time",
		"SELECT y, z / (classification - 2)",
	}

	for trial := 0; trial < 60; trial++ {
		// Assemble a random conjunction with finite seed literals.
		n := 1 + rng.Intn(3)
		var conjs []string
		slots := 0
		for i := 0; i < n; i++ {
			tpl := templates[rng.Intn(len(templates))]
			args := make([]any, tpl.verbs)
			for j := range args {
				args[j] = rng.Float64() * 100
			}
			conjs = append(conjs, fmt.Sprintf(tpl.text, args...))
			slots += tpl.slots
		}
		src := heads[trial%len(heads)] + " FROM ahn2 WHERE " + strings.Join(conjs, " AND ")

		_, toks, seed, err := parameterize(src)
		if err != nil {
			t.Fatalf("parameterize %q: %v", src, err)
		}
		if len(seed) != slots {
			t.Fatalf("%q extracted %d literals, want %d", src, len(seed), slots)
		}
		stmt, err := parseTokens(toks)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		pq, err := e.prepareBound(stmt, seed)
		if err != nil {
			t.Fatalf("prepare %q: %v", src, err)
		}

		// Drive the SAME skeleton through a sweep of adversarial vectors and
		// pin each rebound run to a fresh prepare of the same vector.
		for round := 0; round < 6; round++ {
			params := make([]Value, len(seed))
			for i := range params {
				params[i] = numVal(randLit())
			}
			rebound, rerr := pq.lifecycleRun(context.Background(), nil, params, originCached)
			fresh, ferr := e.prepareBound(stmt, params)
			var want *Result
			var werr error
			if ferr != nil {
				werr = ferr
			} else {
				want, werr = fresh.RunContext(context.Background())
			}
			if (rerr != nil) != (werr != nil) {
				t.Fatalf("%q params %v: rebound err %v, fresh err %v", src, params, rerr, werr)
			}
			if rerr != nil {
				if rerr.Error() != werr.Error() {
					t.Fatalf("%q params %v: error %q vs %q", src, params, rerr, werr)
				}
				continue
			}
			if !resultsEqual(rebound, want) {
				t.Fatalf("%q params %v:\nrebound %v\nfresh   %v", src, params, rebound.Rows(), want.Rows())
			}
		}
	}
}

// sqlTestStatements returns every SELECT statement spelled as a string
// literal in sql_test.go: the front-end fuzz target's seeds.
func sqlTestStatements(f *testing.F) []string {
	file, err := goparser.ParseFile(gotoken.NewFileSet(), "sql_test.go", nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	var stmts []string
	ast.Inspect(file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == gotoken.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(s, "SELECT") {
				stmts = append(stmts, s)
			}
		}
		return true
	})
	return stmts
}

// FuzzParameterize holds the SQL front end to its contract on arbitrary
// text: lex, Parse and parameterize never panic (nor does parsing the
// parameterised stream); a successful parameterize is the lexed stream with
// each WHERE/LIMIT literal moved, in order, into the literal vector — a
// numeric placeholder restores to a number token whose text parses to its
// slot, a string placeholder to a string token of its slot's text, and
// every other token is unchanged; and two texts with equal shape keys have
// equal normalised streams (kinds, texts, placeholder types), so the shape
// key never merges statements that differ outside their literals.
func FuzzParameterize(f *testing.F) {
	navbench := func(x0, y0 float64) []string {
		env := fmt.Sprintf("ST_Contains(ST_MakeEnvelope(%.3f, %.3f, %.3f, %.3f), ST_Point(x, y))", x0, y0, x0+160.5, y0+100.25)
		return []string{
			"SELECT count(*), avg(z) FROM ahn2 WHERE " + env + " AND classification = 2",
			"SELECT classification, count(*), min(z), max(z) FROM ahn2 WHERE " + env + " GROUP BY classification",
			"SELECT x, y, z, classification, intensity FROM ahn2 WHERE " + env + " LIMIT 2000",
			fmt.Sprintf("SELECT classification, count(*), avg(z) FROM ahn2 WHERE z BETWEEN %.3f AND %.3f GROUP BY classification", x0/100, y0/10),
		}
	}
	a, b := navbench(1200, 840.5), navbench(1287.125, 901)
	for i := range a {
		f.Add(a[i], b[i])
	}
	for _, s := range sqlTestStatements(f) {
		f.Add(s, strings.ReplaceAll(s, " ", "  "))
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		keyA, toksA, okA := checkParameterize(t, a)
		keyB, toksB, okB := checkParameterize(t, b)
		if !okA || !okB || keyA != keyB {
			return
		}
		if len(toksA) != len(toksB) {
			t.Fatalf("shape key %q covers token streams of %d and %d tokens:\n%q\n%q", keyA, len(toksA), len(toksB), a, b)
		}
		for i := range toksA {
			ta, tb := toksA[i], toksB[i]
			if ta.kind != tb.kind || ta.text != tb.text || ta.idx != tb.idx || ta.vkind != tb.vkind {
				t.Fatalf("shape key %q covers different tokens at %d (%+v vs %+v):\n%q\n%q", keyA, i, ta, tb, a, b)
			}
		}
	})
}

// checkParameterize runs the front end over src, fails t if putting
// parameterize's literal vector back into its placeholders does not give
// lex's stream, and returns the shape key and the normalised stream.
func checkParameterize(t *testing.T, src string) (string, []token, bool) {
	t.Helper()
	lexed, lexErr := lex(src)
	_, _ = Parse(src)
	key, toks, params, err := parameterize(src)
	if err != nil {
		return "", nil, false
	}
	if lexErr != nil {
		t.Fatalf("parameterize accepts %q, which lex rejects: %v", src, lexErr)
	}
	_, _ = parseTokens(toks)
	if len(toks) != len(lexed) {
		t.Fatalf("%q: parameterize gives %d tokens, lex %d", src, len(toks), len(lexed))
	}
	slot := 0
	for i, tok := range toks {
		want := lexed[i]
		if tok.kind != tokParam {
			if tok.kind != want.kind || tok.text != want.text {
				t.Fatalf("%q: token %d is %+v, lex gave %+v", src, i, tok, want)
			}
			continue
		}
		if tok.idx != slot || slot >= len(params) {
			t.Fatalf("%q: placeholder %d takes slot %d of %d, want slot %d", src, i, tok.idx, len(params), slot)
		}
		p := params[slot]
		slot++
		switch {
		case tok.vkind == KindNum && p.Kind == KindNum && want.kind == tokNumber:
			v, err := strconv.ParseFloat(want.text, 64)
			if err != nil || math.Float64bits(v) != math.Float64bits(p.Num) {
				t.Fatalf("%q: numeric slot %d holds %v, the literal was %q", src, slot-1, p.Num, want.text)
			}
		case tok.vkind == KindStr && p.Kind == KindStr && want.kind == tokString:
			if p.Str != want.text {
				t.Fatalf("%q: string slot %d holds %q, the literal was %q", src, slot-1, p.Str, want.text)
			}
		default:
			t.Fatalf("%q: placeholder %d (%+v, slot %+v) stands for %+v", src, i, tok, p, want)
		}
	}
	if slot != len(params) {
		t.Fatalf("%q: %d literals extracted, %d placeholders", src, len(params), slot)
	}
	return key, toks, true
}
