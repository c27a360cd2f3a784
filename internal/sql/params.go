// Auto-parameterisation: the front half of the plan-skeleton fast path. The
// paper's navigation workload is a stream of near-identical statements whose
// only difference is the viewport constants — every pan/zoom step slides the
// bbox literals. parameterize normalises those literals out of the statement
// text into an ordered literal vector and produces the statement's SHAPE
// key: the token-normalised text with each extracted literal replaced by a
// typed placeholder. The executor keys its statement cache on the shape,
// so a new bbox re-uses the compiled plan skeleton of every earlier step —
// it binds the new constants (plan.go bind) instead of re-planning.
//
// Policy: literals are extracted from the WHERE clause and the LIMIT count
// only. SELECT-list, GROUP BY and ORDER BY literals stay inline — they feed
// output-column naming and grouping structure, so parameterising them would
// change user-visible results; statements differing there simply get their
// own shape. The literal TYPE is part of the shape ("?n" vs "?s"): conjunct
// classification dispatches on it (class = 'road' routes through the
// dictionary, class = 5 through the interpreter), so two texts whose
// literals differ in type must not share a skeleton.
package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// parameterize lexes src, extracts its WHERE/LIMIT literals into params, and
// returns the shape key plus the normalised token stream (literal tokens
// replaced by tokParam). The key is whitespace-insensitive: it is rebuilt
// from the token stream, so formatting differences between two texts of the
// same shape also coalesce.
func parameterize(src string) (key string, toks []token, params []Value, err error) {
	toks, err = lex(src)
	if err != nil {
		return "", nil, nil, err
	}
	inWhere := false
	limitNext := false
	for i := range toks {
		t := &toks[i]
		if t.kind == tokKeyword {
			switch t.text {
			case "WHERE":
				inWhere = true
			case "GROUP", "ORDER":
				inWhere = false
			case "LIMIT":
				inWhere = false
				limitNext = true
				continue
			}
		}
		takeNumber := t.kind == tokNumber && (inWhere || limitNext)
		takeString := t.kind == tokString && inWhere
		if takeNumber {
			v, perr := strconv.ParseFloat(t.text, 64)
			if perr != nil {
				// Mirror the parser's rejection so parameterisation never
				// accepts a literal Parse would have refused.
				return "", nil, nil, fmt.Errorf("sql: bad number %q (at offset %d)", t.text, t.pos)
			}
			params = append(params, numVal(v))
			*t = token{kind: tokParam, text: "?", pos: t.pos, idx: len(params) - 1, vkind: KindNum}
		} else if takeString {
			params = append(params, strVal(t.text))
			*t = token{kind: tokParam, text: "?", pos: t.pos, idx: len(params) - 1, vkind: KindStr}
		}
		limitNext = false
	}
	return shapeKey(toks), toks, params, nil
}

// shapeKey renders the normalised token stream as the statement-cache key.
// Placeholders carry their literal type; string literals that stay inline
// (outside WHERE) are quoted so they cannot collide with identifiers.
func shapeKey(toks []token) string {
	var sb strings.Builder
	for i, t := range toks {
		if t.kind == tokEOF {
			break
		}
		if i > 0 {
			sb.WriteByte(' ')
		}
		switch t.kind {
		case tokParam:
			if t.vkind == KindStr {
				sb.WriteString("?s")
			} else {
				sb.WriteString("?n")
			}
		case tokString:
			// Re-escape embedded quotes: the lexer unescaped '' to ', and
			// rendering the raw text would let a literal containing
			// "' AS x , '" collide with a two-literal statement's key.
			sb.WriteByte('\'')
			sb.WriteString(strings.ReplaceAll(t.text, "'", "''"))
			sb.WriteByte('\'')
		default:
			sb.WriteString(t.text)
		}
	}
	return sb.String()
}

// equalParams reports whether two literal vectors are identical — the
// same-text fast path: when a shape-cache hit carries the constants of the
// statement's last bound vector, that bound serves it and no bind runs. NaN
// constants compare unequal and therefore re-bind, the safe direction.
func equalParams(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind {
			return false
		}
		switch a[i].Kind {
		case KindNum:
			if a[i].Num != b[i].Num {
				return false
			}
		case KindStr:
			if a[i].Str != b[i].Str {
				return false
			}
		default:
			return false
		}
	}
	return true
}
