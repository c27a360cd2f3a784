package sql

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gisnav/internal/engine"
	"gisnav/internal/las"
)

const exprBenchRows = 1 << 20

var (
	exprBenchOnce sync.Once
	exprBenchExec *Executor
)

// exprBenchDB builds a 1 M-row cloud over a 1000 × 1000 extent, appended
// 64 K points at a time so the staging rows stay small.
func exprBenchDB() *Executor {
	exprBenchOnce.Do(func() {
		rng := rand.New(rand.NewSource(5))
		pc := engine.NewPointCloud()
		pts := make([]las.Point, 1<<16)
		for done := 0; done < exprBenchRows; done += len(pts) {
			for i := range pts {
				pts[i] = las.Point{
					X: rng.Float64() * 1000, Y: rng.Float64() * 1000, Z: rng.Float64()*120 - 30,
					Intensity:      uint16(rng.Intn(900)),
					Classification: uint8(rng.Intn(11)),
				}
			}
			pc.AppendLAS(pts)
		}
		db := engine.NewDB()
		db.RegisterPointCloud("ahn2", pc)
		exprBenchExec = New(db)
	})
	return exprBenchExec
}

// benchRebound prepares the statement fmtSrc renders for the first
// constant vector, then runs it once per iteration, each run rebinding the
// next vector of vecs into the cached plan.
func benchRebound(b *testing.B, fmtSrc string, vecs [][]any) {
	e := exprBenchDB()
	params := make([][]Value, len(vecs))
	for i, v := range vecs {
		var err error
		if _, _, params[i], err = parameterize(fmt.Sprintf(fmtSrc, v...)); err != nil {
			b.Fatal(err)
		}
	}
	pq, err := e.Prepare(fmt.Sprintf(fmtSrc, vecs[0]...))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pq.lifecycleRun(ctx, nil, params[i%len(params)], originCached)
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkCompiledExpr times the compiled-expression arm on the 1 M-row
// cloud: arith is a rebound arithmetic WHERE the engine kernels cannot
// take (two compiled conjuncts over every row), fetch is navbench
// pan.fetch's five-column projection of a bbox cut to 2,000 rows, its
// viewport moving every run.
func BenchmarkCompiledExpr(b *testing.B) {
	b.Run("arith", func(b *testing.B) {
		benchRebound(b, "SELECT count(*) FROM ahn2 WHERE z - %g*intensity > %g AND x + y BETWEEN %g AND %g", [][]any{
			{2.0, -900.0, 300.0, 1700.0}, {2.0, -600.0, 500.0, 1500.0}, {3.0, -1200.0, 200.0, 1800.0}, {1.0, -400.0, 800.0, 1200.0},
		})
	})
	b.Run("fetch", func(b *testing.B) {
		benchRebound(b, "SELECT x, y, z, classification, intensity FROM ahn2 WHERE "+
			"ST_Contains(ST_MakeEnvelope(%g, %g, %g, %g), ST_Point(x, y)) LIMIT 2000", [][]any{
			{100.0, 100.0, 250.0, 250.0}, {400.0, 300.0, 550.0, 450.0}, {700.0, 600.0, 850.0, 750.0}, {200.0, 650.0, 350.0, 800.0},
		})
	})
}
