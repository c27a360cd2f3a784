package sql

import "gisnav/internal/engine"

// Result is a completed query, column-shaped from the engine to the socket:
// Columns names the output columns and Cols holds one typed vector per
// column, all the same length. Explain is the operator trace (the demo's
// per-operator EXPLAIN view; nil for untraced runs).
//
// Columns is shared with the statement's plan — treat it and the vectors as
// read-only. The vectors are heap-owned by the result (never pooled), so a
// Result stays valid after the run that produced it and across later runs
// of the same statement.
type Result struct {
	Columns []string
	Cols    []Column
	Explain *engine.Explain
}

// Column is one output column. A numeric column carries Nums plus an
// optional NULL mask (Null[i] marks row i as SQL NULL; a nil mask means no
// NULLs); any other column — strings, booleans, geometries, or whatever the
// row-wise interpreter produced — carries Vals and leaves Nums nil.
type Column struct {
	Nums []float64
	Null []bool
	Vals []Value
}

// Len reports the number of rows in the column.
func (c *Column) Len() int {
	if c.Vals != nil {
		return len(c.Vals)
	}
	return len(c.Nums)
}

// Value boxes row i of the column.
func (c *Column) Value(i int) Value {
	switch {
	case c.Vals != nil:
		return c.Vals[i]
	case c.Null != nil && c.Null[i]:
		return Value{Kind: KindNull}
	default:
		return numVal(c.Nums[i])
	}
}

// put stores v at row i of a column created numeric (sized by Nums). The
// column stays numeric while every value is a number or NULL; the first
// string, boolean or geometry promotes it to a Value vector.
func (c *Column) put(i int, v Value) {
	switch {
	case c.Vals != nil:
		c.Vals[i] = v
	case v.Kind == KindNum:
		c.Nums[i] = v.Num
	case v.Kind == KindNull:
		if c.Null == nil {
			c.Null = make([]bool, len(c.Nums))
		}
		c.Null[i] = true
	default:
		vals := make([]Value, len(c.Nums))
		for j := 0; j < i; j++ {
			vals[j] = c.Value(j)
		}
		vals[i] = v
		*c = Column{Vals: vals}
	}
}

// gather returns the column's rows idx, in that order, in fresh vectors.
func (c *Column) gather(idx []int) Column {
	var out Column
	if c.Vals != nil {
		out.Vals = make([]Value, len(idx))
		for i, j := range idx {
			out.Vals[i] = c.Vals[j]
		}
		return out
	}
	out.Nums = make([]float64, len(idx))
	for i, j := range idx {
		out.Nums[i] = c.Nums[j]
	}
	if c.Null != nil {
		out.Null = make([]bool, len(idx))
		for i, j := range idx {
			out.Null[i] = c.Null[j]
		}
	}
	return out
}

// numericResult returns a result over cols whose every column is an n-row
// numeric vector, all cut from one exactly-sized heap slab: the result
// header, the column list and the slab are its only allocations.
func numericResult(cols []string, n int, ex *engine.Explain) *Result {
	res := &Result{Columns: cols, Cols: make([]Column, len(cols)), Explain: ex}
	slab := make([]float64, len(cols)*n)
	for i := range res.Cols {
		res.Cols[i].Nums, slab = slab[:n:n], slab[n:]
	}
	return res
}

// Len reports the number of rows in the result.
func (r *Result) Len() int {
	if len(r.Cols) == 0 {
		return 0
	}
	return r.Cols[0].Len()
}

// Rows materialises the result as value rows — the view the REPL, the
// benchmarks and the tests read. It allocates the whole row set on every
// call; latency-critical consumers (the server's encoder) walk Cols.
func (r *Result) Rows() [][]Value {
	n, k := r.Len(), len(r.Cols)
	rows := make([][]Value, n)
	cells := make([]Value, n*k)
	for i := range rows {
		row := cells[i*k : (i+1)*k : (i+1)*k]
		for j := range r.Cols {
			row[j] = r.Cols[j].Value(i)
		}
		rows[i] = row
	}
	return rows
}
