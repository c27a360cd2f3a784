package main

import (
	"encoding/json"
	"fmt"
	"math"

	"gisnav/internal/dataset"
	"gisnav/internal/engine"
)

// oracle answers every statement shape by brute force: one plain loop over
// the rows per step, no index, no kernel, no shared code with the engine
// beyond reading the column values. avg accumulates in ascending row order,
// the order the engine's aggregate contract fixes, so its result is
// bit-identical or the engine is wrong.
type oracle struct {
	xs, ys, zs []float64
	class      []uint8
	intensity  []uint16

	// breakExpectation is the self-test hook (-break-oracle): it makes
	// every expected count wrong, so the run must report failures and
	// exit non-zero.
	breakExpectation bool
}

// snapshot reads the point cloud's columns. The coordinate slices alias the
// table and go stale when an append moves them; snapshot again after
// appending.
func (o *oracle) snapshot(pc *engine.PointCloud) {
	o.xs, o.ys, o.zs = pc.X(), pc.Y(), pc.Z()
	cls, inten := pc.Column(engine.ColClassification), pc.Column(engine.ColIntensity)
	o.class = make([]uint8, pc.Len())
	o.intensity = make([]uint16, pc.Len())
	for i := range o.class {
		o.class[i] = uint8(cls.Value(i))
		o.intensity[i] = uint16(inten.Value(i))
	}
}

func pointCloud(db *engine.DB) *engine.PointCloud {
	pc, err := db.PointCloud(dataset.TableCloud)
	if err != nil {
		panic(err) // the harness loaded the dataset itself
	}
	return pc
}

// answer evaluates st over the first n rows (the table as it was when the
// step ran — appends only add rows) and returns the rows the server must
// send, as the values its JSON decodes to: float64, or nil for NULL.
func (o *oracle) answer(st *step, n int) [][]any {
	var rows [][]any
	switch st.shape {
	case shapeBBox:
		var cnt, sum float64
		for i := 0; i < n; i++ {
			if o.inView(st, i) && o.class[i] == groundClass {
				cnt++
				sum += o.zs[i]
			}
		}
		row := []any{cnt, nil}
		if cnt > 0 {
			row[1] = sum / cnt
		}
		rows = [][]any{row}
	case shapeFetch:
		rows = [][]any{}
		for i := 0; i < n && len(rows) < fetchLimit; i++ {
			if o.inView(st, i) {
				rows = append(rows, []any{o.xs[i], o.ys[i], o.zs[i], float64(o.class[i]), float64(o.intensity[i])})
			}
		}
	case shapeHist, shapeThematic:
		rows = o.grouped(st, n)
	}
	if o.breakExpectation && len(rows) > 0 && len(rows[0]) > 1 {
		if v, ok := rows[0][1].(float64); ok {
			rows[0][1] = v + 1
		}
	}
	return rows
}

func (o *oracle) inView(st *step, i int) bool {
	v := &st.view
	return o.xs[i] >= v.MinX && o.xs[i] <= v.MaxX && o.ys[i] >= v.MinY && o.ys[i] <= v.MaxY
}

// grouped is GROUP BY classification over the matching rows, in ascending
// class order: (class, count, min z, max z) for the histogram shape,
// (class, count, avg z) for the thematic one.
func (o *oracle) grouped(st *step, n int) [][]any {
	var groups [256]struct{ cnt, sum, lo, hi float64 }
	for i := 0; i < n; i++ {
		z := o.zs[i]
		if st.shape == shapeHist && !o.inView(st, i) || st.shape == shapeThematic && (z < st.zlo || z > st.zhi) {
			continue
		}
		g := &groups[o.class[i]]
		if g.cnt == 0 || z < g.lo {
			g.lo = z
		}
		if g.cnt == 0 || z > g.hi {
			g.hi = z
		}
		g.cnt++
		g.sum += z
	}
	rows := [][]any{}
	for k := range groups {
		g := &groups[k]
		switch {
		case g.cnt == 0:
		case st.shape == shapeHist:
			rows = append(rows, []any{float64(k), g.cnt, g.lo, g.hi})
		default:
			rows = append(rows, []any{float64(k), g.cnt, g.sum / g.cnt})
		}
	}
	return rows
}

// reply is the part of a /query success body the harness reads.
type reply struct {
	Rows [][]any `json:"rows"`
}

// checkReply decodes a response body and compares it value by value with
// the oracle's rows: numbers bit-exact after the JSON round trip, NULLs as
// null, rows in order.
func checkReply(body []byte, want [][]any) error {
	var got reply
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("undecodable reply: %w", err)
	}
	if len(got.Rows) != len(want) {
		return fmt.Errorf("%d rows, oracle has %d", len(got.Rows), len(want))
	}
	for r, wrow := range want {
		if len(got.Rows[r]) != len(wrow) {
			return fmt.Errorf("row %d: %d values, oracle has %d", r, len(got.Rows[r]), len(wrow))
		}
		for c, w := range wrow {
			if !sameValue(got.Rows[r][c], w) {
				return fmt.Errorf("row %d col %d: got %v, oracle has %v", r, c, got.Rows[r][c], w)
			}
		}
	}
	return nil
}

func sameValue(got, want any) bool {
	g, gok := got.(float64)
	w, wok := want.(float64)
	if gok != wok {
		return false
	}
	if !gok {
		return got == nil && want == nil
	}
	return math.Float64bits(g) == math.Float64bits(w)
}
