package sql

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// exprGen renders a random expression shape from fuzz bytes. Every WHERE
// literal it writes is a parameter slot, numbered in order, so one shape
// renders under two constant vectors; past the end of the bytes every
// choice is the first, which ends the tree in a leaf.
type exprGen struct {
	data  []byte
	slots int
}

func (g *exprGen) next() int {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b)
}

var fuzzCols = []string{"x", "y", "z", "intensity", "classification", "gps_time", "scan_angle"}

// num writes a numeric expression of at most depth operators. inWhere
// literals become slot markers {k}; select-list literals stay inline.
func (g *exprGen) num(depth int, inWhere bool) string {
	c := g.next()
	if depth == 0 || c < 96 {
		switch c % 3 {
		case 0:
			return fuzzCols[g.next()%len(fuzzCols)]
		case 1:
			if inWhere {
				g.slots++
				return fmt.Sprintf("{%d}", g.slots-1)
			}
			return fuzzLits[g.next()%len(fuzzLits)]
		default:
			return "-" + fuzzCols[g.next()%len(fuzzCols)]
		}
	}
	switch c % 6 {
	case 0:
		return "abs(" + g.num(depth-1, inWhere) + ")"
	default:
		op := string("+-*/%"[c%5])
		return "(" + g.num(depth-1, inWhere) + " " + op + " " + g.num(depth-1, inWhere) + ")"
	}
}

// pred writes a boolean expression: comparisons, BETWEEN, NOT, AND/OR,
// TRUE/FALSE and bare truthy terms.
func (g *exprGen) pred(depth int) string {
	c := g.next()
	switch c % 8 {
	case 0, 1:
		op := []string{"=", "<>", "<", "<=", ">", ">="}[g.next()%6]
		return "(" + g.num(depth, true) + " " + op + " " + g.num(depth, true) + ")"
	case 2:
		return "(" + g.num(depth, true) + " BETWEEN " + g.num(depth-1, true) + " AND " + g.num(depth-1, true) + ")"
	case 3:
		if depth > 0 {
			return "(NOT " + g.pred(depth-1) + ")"
		}
		return "TRUE"
	case 4:
		if depth > 0 {
			return "(" + g.pred(depth-1) + " AND " + g.pred(depth-1) + ")"
		}
		return "FALSE"
	case 5:
		if depth > 0 {
			return "(" + g.pred(depth-1) + " OR " + g.pred(depth-1) + ")"
		}
		return "TRUE"
	case 6:
		return []string{"TRUE", "FALSE"}[g.next()%2]
	default:
		return "(" + g.num(depth, true) + ")"
	}
}

// fuzzLits are the constants a slot or an inline literal takes: zeros that
// divide and truncate to zero, and fractions that survive truncation.
var fuzzLits = []string{"0", "1", "2", "3", "7", "0.5", "2.5", "100", "1000", "0.25"}

// fill renders tmpl's slot markers with constants chosen by pick.
func fill(tmpl string, slots int, pick func(k int) string) string {
	for k := range slots {
		tmpl = strings.Replace(tmpl, "{"+strconv.Itoa(k)+"}", pick(k), 1)
	}
	return tmpl
}

// FuzzCompiledExpr holds the compiled expression arm to the row-at-a-time
// interpreter over nanDB's NaN z and NaN/±0/+Inf gps_time: a fuzzed WHERE
// and select list run on the compiled plan, after a rebind to a second
// constant vector, then on the same plan with every compiled node removed.
// Rows, column bits and error text must agree, and every compiled tree
// must hold no constant (walkConstFree).
func FuzzCompiledExpr(f *testing.F) {
	e, _ := nanDB(f, 3000) // three expression chunks
	for _, seed := range []string{
		"\x00",
		"\x68\x61\x00\x02\x01\x01\x02\x03\x04",
		"\x01\x02\x70\x63\x00\x01\x00\x03\x64\x00\x02\x10\x05",
		"\x04\x00\x60\x01\x00\x00\x05\x66\x01\x02\x09\x01\x07",
		"\x05\x03\x02\x00\x00\x06\x01\x07\x69\x02\x04\x00\x01\x00\x04",
		"\x07\x60\x64\x00\x02\x01\x05\x09\x60\x00\x01\x02\x03\x66",
		"\x02\x62\x00\x00\x01\x01\x00\x06\x61\x60\x00\x05\x01\x08\x02",
		// 100 / (x % x) <= x: row 0 divides by zero, a later row with
		// x < 1 takes a modulo by zero first in operator order.
		"\x20\x81\xb2\x01\x6d",
	} {
		f.Add([]byte(seed), uint8(3), uint8(7))
	}
	f.Fuzz(func(t *testing.T, data []byte, shift1, shift2 uint8) {
		g := &exprGen{data: data}
		where := g.pred(2)
		var items []string
		for range 1 + g.next()%3 {
			items = append(items, g.num(2, false))
		}
		tmpl := "SELECT " + strings.Join(items, ", ") + " FROM cloud WHERE " + where
		render := func(shift uint8) string {
			return fill(tmpl, g.slots, func(k int) string { return fuzzLits[(k+int(shift))%len(fuzzLits)] })
		}
		q1, q2 := render(shift1), render(shift2)
		pq, err := e.Prepare(q1)
		if err != nil {
			t.Skipf("%s: %v", q1, err)
		}
		_, _, params2, err := parameterize(q2)
		if err != nil {
			t.Fatalf("%s: %v", q2, err)
		}
		ctx := context.Background()
		if _, err := pq.lifecycleRun(ctx, nil, pq.init, originCached); err != nil && !strings.Contains(err.Error(), "by zero") {
			t.Fatalf("%s: %v", q1, err)
		}
		got, gerr := pq.lifecycleRun(ctx, nil, params2, originCached)
		plan := planOf(pq)
		assertConstFree(t, plan.proj)
		for i := range plan.generic {
			assertConstFree(t, plan.generic[i].cf)
			plan.generic[i].cf = nil
		}
		clear(plan.proj)
		want, werr := pq.lifecycleRun(ctx, nil, params2, originCached)
		if planOf(pq) != plan {
			t.Fatalf("%s: the interpreter run replanned", q2)
		}
		if (gerr != nil) != (werr != nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("%s: compiled err %v, interpreter err %v", q2, gerr, werr)
		}
		if gerr != nil {
			return
		}
		if got.Len() != want.Len() {
			t.Fatalf("%s: %d rows compiled, %d interpreted", q2, got.Len(), want.Len())
		}
		for j := range got.Cols {
			for i := 0; i < got.Len(); i++ {
				gv, wv := got.Cols[j].Value(i), want.Cols[j].Value(i)
				if gv.Kind != wv.Kind || math.Float64bits(gv.Num) != math.Float64bits(wv.Num) || gv.String() != wv.String() {
					t.Fatalf("%s: row %d col %d: compiled %v, interpreter %v", q2, i, j, gv, wv)
				}
			}
		}
	})
}
