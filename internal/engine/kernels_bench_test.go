package engine

import (
	"math/rand"
	"sync"
	"testing"

	"gisnav/internal/colstore"
)

// legacyFilterRowsOne is a verbatim copy of the pre-kernel filterRowsOne:
// typed value access, but operator re-dispatch through ColumnPred.Matches
// and float64 widening on every row. It is kept here as the benchmark
// baseline the kernels are measured against.
func legacyFilterRowsOne(col colstore.Column, rows []int, pred ColumnPred) []int {
	out := rows[:0]
	switch t := col.(type) {
	case *colstore.F64Column:
		vals := t.Values()
		for _, r := range rows {
			if pred.Matches(vals[r]) {
				out = append(out, r)
			}
		}
	case *colstore.U8Column:
		vals := t.Values()
		for _, r := range rows {
			if pred.Matches(float64(vals[r])) {
				out = append(out, r)
			}
		}
	case *colstore.U16Column:
		vals := t.Values()
		for _, r := range rows {
			if pred.Matches(float64(vals[r])) {
				out = append(out, r)
			}
		}
	case *colstore.I32Column:
		vals := t.Values()
		for _, r := range rows {
			if pred.Matches(float64(vals[r])) {
				out = append(out, r)
			}
		}
	default:
		for _, r := range rows {
			if pred.Matches(col.Value(r)) {
				out = append(out, r)
			}
		}
	}
	return out
}

const benchRows = 1 << 20 // 1M

var (
	benchOnce    sync.Once
	benchCloud   *PointCloud
	benchIdent   []int
	benchScatter []int
)

// benchFixture builds a 1M-row cloud with random values in every kernel
// benchmark column, a reusable identity selection vector and a 40 %
// scattered one.
func benchFixture(b *testing.B) (*PointCloud, []int) {
	b.Helper()
	benchOnce.Do(func() {
		rng := rand.New(rand.NewSource(99))
		pc := NewPointCloud()
		for _, f := range pc.Schema().Fields {
			col := pc.Column(f.Name)
			switch f.Name {
			case ColClassification:
				for i := 0; i < benchRows; i++ {
					col.AppendValue(float64(rng.Intn(19)))
				}
			case ColIntensity:
				for i := 0; i < benchRows; i++ {
					col.AppendValue(float64(rng.Intn(1 << 16)))
				}
			case ColScanAngle:
				for i := 0; i < benchRows; i++ {
					col.AppendValue(float64(rng.Intn(60001) - 30000))
				}
			case ColZ:
				for i := 0; i < benchRows; i++ {
					col.AppendValue(rng.Float64() * 300)
				}
			default:
				// Cheap constant fill keeps the flat-table invariant.
				for i := 0; i < benchRows; i++ {
					col.AppendValue(0)
				}
			}
		}
		benchCloud = pc
		benchIdent = make([]int, benchRows)
		for i := range benchIdent {
			benchIdent[i] = i
			if rng.Float64() < 0.4 {
				benchScatter = append(benchScatter, i)
			}
		}
	})
	return benchCloud, benchIdent
}

// kernelBenchCol is one row of the kernel benchmark table: a column per
// typed kernel instantiation (u8, u16, i32, f64) with its constants for the
// operators =, <>, < and BETWEEN, the range shapes at mid selectivity.
type kernelBenchCol struct {
	typ, column    string
	eq, lt, lo, hi float64 // = and <> constant, < constant, BETWEEN bounds
}

var kernelBenchCols = []kernelBenchCol{
	{"u8", ColClassification, 6, 8, 3, 8},
	{"u16", ColIntensity, 30000, 26214, 20000, 40000},
	{"i32", ColScanAngle, 0, -6000, -5000, 5000},
	{"f64", ColZ, 100, 120, 100, 130},
}

// preds lists the row's four predicates.
func (c kernelBenchCol) preds() []ColumnPred {
	return []ColumnPred{
		{Column: c.column, Op: CmpEQ, Value: c.eq},
		{Column: c.column, Op: CmpNE, Value: c.eq},
		{Column: c.column, Op: CmpLT, Value: c.lt},
		{Column: c.column, Op: CmpBetween, Value: c.lo, Value2: c.hi},
	}
}

// benchOpName names an operator in a sub-benchmark path.
func benchOpName(op CmpOp) string {
	return map[CmpOp]string{CmpEQ: "eq", CmpNE: "ne", CmpLT: "lt", CmpBetween: "between"}[op]
}

// BenchmarkFilterKernel runs the kernel table on both paths: block (the
// whole column, as a predicate over no prior selection) and sel (narrowing
// a 40 % scattered selection vector), each into a pooled result vector —
// the steady-state query path.
func BenchmarkFilterKernel(b *testing.B) {
	pc, _ := benchFixture(b)
	for _, c := range kernelBenchCols {
		col := pc.Column(c.column)
		for _, pred := range c.preds() {
			k := CompileFilterKernel(col, pred.Op)
			a := k.Bind(pred.Value, pred.Value2)
			b.Run(c.typ+"/"+benchOpName(pred.Op)+"/block", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					RecycleRows(k.FilterBlock(a, 0, col.Len(), rowPool.Get(col.Len())))
				}
			})
			b.Run(c.typ+"/"+benchOpName(pred.Op)+"/sel", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					RecycleRows(k.FilterSel(a, benchScatter, rowPool.Get(len(benchScatter))))
				}
			})
		}
	}
}

// BenchmarkFilterLegacy measures the pre-kernel arm over the same table:
// per-row Matches over an identity selection vector (scratch is reused, so
// allocations measure the dispatch loop only, as in the old FilterRows).
// Compare it with BenchmarkFilterKernel's block path.
func BenchmarkFilterLegacy(b *testing.B) {
	pc, ident := benchFixture(b)
	scratch := make([]int, len(ident))
	for _, c := range kernelBenchCols {
		col := pc.Column(c.column)
		for _, pred := range c.preds() {
			b.Run(c.typ+"/"+benchOpName(pred.Op), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(scratch, ident)
					legacyFilterRowsOne(col, scratch, pred)
				}
			})
		}
	}
}

// BenchmarkFilterRowsKernel_1M measures the public FilterRows entry point
// end-to-end on the steady-state pooled path.
func BenchmarkFilterRowsKernel_1M(b *testing.B) {
	pc, _ := benchFixture(b)
	preds := []ColumnPred{{Column: ColClassification, Op: CmpEQ, Value: 6}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := pc.FilterRows(nil, preds, nil)
		if err != nil {
			b.Fatal(err)
		}
		RecycleRows(rows)
	}
}

// BenchmarkAggregateLegacyClosure_1M vs the typed kernel: sum/min/max fused
// over the u16 intensity column.
func BenchmarkAggregateLegacyClosure_1M(b *testing.B) {
	pc, _ := benchFixture(b)
	col := pc.Column(ColIntensity)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		v, ok := naiveAggregate(col, nil, true, AggSum, pc.Len())
		if !ok {
			b.Fatal("naive aggregate undefined")
		}
		sink += v
	}
	_ = sink
}

func BenchmarkAggregateKernel_1M(b *testing.B) {
	pc, _ := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		v, err := pc.Aggregate(nil, AggSum, ColIntensity, nil)
		if err != nil {
			b.Fatal(err)
		}
		sink += v
	}
	_ = sink
}
