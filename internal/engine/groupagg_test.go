package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"gisnav/internal/colstore"
	"gisnav/internal/las"
)

// groupTestCloud builds a point cloud with adversarial grouped-aggregation
// inputs: a small-domain u8 key (classification), a >256-value u16 key
// (intensity), float keys with NaN and ±0 (gps_time), and value columns
// containing NaN (z) — the cases the vectorized paths must keep
// bit-identical to a row-at-a-time reference.
func groupTestCloud(t *testing.T, n int) *PointCloud {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	gpsPalette := []float64{math.NaN(), math.Copysign(0, -1), 0, -12.5, 3.25, 1e9, math.Inf(1)}
	pts := make([]las.Point, n)
	for i := range pts {
		z := rng.Float64()*200 - 50
		if rng.Intn(37) == 0 {
			z = math.NaN()
		}
		pts[i] = las.Point{
			X: rng.Float64() * 1000, Y: rng.Float64() * 1000, Z: z,
			Intensity:      uint16(rng.Intn(1000)),
			Classification: uint8(rng.Intn(9)),
			GPSTime:        gpsPalette[rng.Intn(len(gpsPalette))],
			Red:            uint16(rng.Intn(1 << 16)),
		}
	}
	pc := NewPointCloud()
	pc.AppendLAS(pts)
	return pc
}

// refGrouped is the row-at-a-time reference: same widening, same ascending
// accumulation order, same ±Inf min/max seeds, same canonical-NaN key
// identity, same FloatOrderKey output order. An empty key is the key-less
// fold: one group, key 0, absent over an empty selection.
func refGrouped(pc *PointCloud, rows []int, key string, specs []GroupedAggSpec) (keys []float64, cols [][]float64) {
	type acc struct {
		key  float64
		n    float64
		vals []struct{ sum, lo, hi float64 }
	}
	keyCol := pc.Column(key)
	groups := map[uint64]*acc{}
	var order []uint64
	n := len(rows)
	if rows == nil {
		n = pc.Len()
	}
	for i := 0; i < n; i++ {
		r := i
		if rows != nil {
			r = rows[i]
		}
		var kv float64 // an empty key: every row in group 0
		if keyCol != nil {
			kv = keyCol.Value(r)
		}
		kb := canonicalBits(kv)
		g, ok := groups[kb]
		if !ok {
			g = &acc{key: kv, vals: make([]struct{ sum, lo, hi float64 }, len(specs))}
			for j := range g.vals {
				g.vals[j].lo, g.vals[j].hi = math.Inf(1), math.Inf(-1)
			}
			groups[kb] = g
			order = append(order, kb)
		}
		g.n++
		for j, s := range specs {
			if s.Fn == AggCount {
				continue
			}
			v := pc.Column(s.Column).Value(r)
			g.vals[j].sum += v
			if v < g.vals[j].lo {
				g.vals[j].lo = v
			}
			if v > g.vals[j].hi {
				g.vals[j].hi = v
			}
		}
	}
	// Emit in FloatOrderKey order (keys are unique, so any sort agrees).
	sort.Slice(order, func(a, b int) bool {
		return FloatOrderKey(groups[order[a]].key) < FloatOrderKey(groups[order[b]].key)
	})
	cols = make([][]float64, len(specs))
	for _, kb := range order {
		g := groups[kb]
		keys = append(keys, g.key)
		for j, s := range specs {
			var v float64
			switch s.Fn {
			case AggCount:
				v = g.n
			case AggSum:
				v = g.vals[j].sum
			case AggAvg:
				v = g.vals[j].sum / g.n
			case AggMin:
				v = g.vals[j].lo
			case AggMax:
				v = g.vals[j].hi
			}
			cols[j] = append(cols[j], v)
		}
	}
	return keys, cols
}

// eqF compares floats treating every NaN as equal (sum/avg over NaN inputs).
func eqF(a, b float64) bool { return a == b || (a != a && b != b) }

func checkGrouped(t *testing.T, pc *PointCloud, rows []int, key string, specs []GroupedAggSpec, wantStrategy string) {
	t.Helper()
	var res GroupedResult
	if err := pc.GroupedAggregate(rows, key, specs, &res, nil); err != nil {
		t.Fatalf("GroupedAggregate(%s): %v", key, err)
	}
	if wantStrategy != "" && res.Strategy != wantStrategy {
		t.Fatalf("key %s: strategy %s, want %s", key, res.Strategy, wantStrategy)
	}
	wantKeys, wantCols := refGrouped(pc, rows, key, specs)
	if len(res.Keys) != len(wantKeys) {
		t.Fatalf("key %s (%s): %d groups, want %d", key, res.Strategy, len(res.Keys), len(wantKeys))
	}
	for i := range wantKeys {
		if !eqF(res.Keys[i], wantKeys[i]) || math.Signbit(res.Keys[i]) != math.Signbit(wantKeys[i]) {
			t.Fatalf("key %s (%s): group %d key %v, want %v", key, res.Strategy, i, res.Keys[i], wantKeys[i])
		}
		for j := range specs {
			if !eqF(res.Cols[j][i], wantCols[j][i]) {
				t.Fatalf("key %s (%s): group %d agg %d = %v, want %v",
					key, res.Strategy, i, j, res.Cols[j][i], wantCols[j][i])
			}
		}
	}
}

// randomSelection draws a sorted subset of rows (the shape real selections
// have), possibly empty.
func randomSelection(rng *rand.Rand, n int, keep float64) []int {
	rows := []int{}
	for i := 0; i < n; i++ {
		if rng.Float64() < keep {
			rows = append(rows, i)
		}
	}
	return rows
}

// TestGroupedAggregateMatchesReference pins both strategies to the
// row-at-a-time reference over random key domains (u8 dense, u16
// dense-and-hash, f64/i64/i32 hash including NaN and ±0 keys), NaN values,
// empty groups via narrowed selections, and the empty selection.
func TestGroupedAggregateMatchesReference(t *testing.T) {
	pc := groupTestCloud(t, 70000)
	rng := rand.New(rand.NewSource(7))
	specs := []GroupedAggSpec{
		{Fn: AggCount},
		{Fn: AggSum, Column: ColZ},
		{Fn: AggAvg, Column: ColZ},
		{Fn: AggMin, Column: ColZ},
		{Fn: AggMax, Column: ColIntensity},
	}
	sels := [][]int{
		nil, // all rows
		{},  // empty selection: zero groups
		{0}, // single row
		randomSelection(rng, pc.Len(), 0.5),
		randomSelection(rng, pc.Len(), 0.01),
	}
	for _, rows := range sels {
		checkGrouped(t, pc, rows, ColClassification, specs, GroupDense)
		checkGrouped(t, pc, rows, ColGPSTime, specs, GroupHash) // float keys incl NaN, -0, +Inf
		checkGrouped(t, pc, rows, ColScanAngle, specs, GroupHash)
		checkGrouped(t, pc, rows, ColWaveOffset, specs, GroupHash)
	}
	// u16 key: a large selection takes the dense 64K bank, a small one the
	// hash table; both must agree with the reference (>256 distinct keys).
	checkGrouped(t, pc, nil, ColIntensity, specs, GroupDense)
	small := randomSelection(rng, pc.Len(), 0.1)
	if len(small) >= (1<<16)/denseMinRowsPerSlot {
		t.Fatalf("selection of %d rows does not exercise the u16 hash arm", len(small))
	}
	checkGrouped(t, pc, small, ColIntensity, specs, GroupHash)
}

// foldTestCloud is the fold-plan property table: every column carries
// random values of its type (f64 columns with NaN and ±Inf, z with -0
// too), the u8 key has nine classes, the u16 key (point_source_id) a
// thousand, and the f64 key (gps_time) NaN, ±0 and +Inf.
func foldTestCloud(n int) *PointCloud {
	pc := randomTestCloud(n, 77)
	rng := rand.New(rand.NewSource(78))
	class := pc.Column(ColClassification).(*colstore.U8Column).Values()
	source := pc.Column(ColPointSourceID).(*colstore.U16Column).Values()
	gps := pc.Column(ColGPSTime).(*colstore.F64Column).Values()
	z := pc.Z()
	palette := []float64{math.NaN(), math.Copysign(0, -1), 0, -12.5, 3.25, 1e9, math.Inf(1)}
	for i := range class {
		class[i] = uint8(rng.Intn(9))
		source[i] = uint16(rng.Intn(1000))
		gps[i] = palette[rng.Intn(len(palette))]
		if rng.Intn(41) == 0 {
			z[i] = math.Copysign(0, -1)
		}
	}
	return pc
}

// foldPlanConfig is one spec list of the fold-plan property table.
type foldPlanConfig struct {
	name  string
	specs []GroupedAggSpec
}

// foldPlanConfigs enumerates the plan shapes the fold compiles: several
// distinct value columns, every function on one column, repeated specs
// (each must still fill its own column), count-only and count-free lists,
// the min/max pairs of the former fused pass, every value type, and a list
// longer than 64 specs.
func foldPlanConfigs() []foldPlanConfig {
	wide := []GroupedAggSpec{{Fn: AggCount}}
	for i := 0; i < 35; i++ {
		wide = append(wide, GroupedAggSpec{Fn: AggMin, Column: ColZ}, GroupedAggSpec{Fn: AggMax, Column: ColIntensity})
	}
	wide = append(wide, GroupedAggSpec{Fn: AggMax, Column: ColScanAngle})
	return []foldPlanConfig{
		{"two-columns", []GroupedAggSpec{{Fn: AggCount}, {Fn: AggSum, Column: ColZ}, {Fn: AggMax, Column: ColIntensity},
			{Fn: AggAvg, Column: ColScanAngle}, {Fn: AggMin, Column: ColZ}}},
		{"all-on-one", []GroupedAggSpec{{Fn: AggCount}, {Fn: AggSum, Column: ColZ}, {Fn: AggAvg, Column: ColZ},
			{Fn: AggMin, Column: ColZ}, {Fn: AggMax, Column: ColZ}}},
		{"duplicates", []GroupedAggSpec{{Fn: AggMin, Column: ColZ}, {Fn: AggMin, Column: ColZ}, {Fn: AggSum, Column: ColZ},
			{Fn: AggAvg, Column: ColZ}, {Fn: AggCount}, {Fn: AggSum, Column: ColZ}, {Fn: AggMax, Column: ColZ},
			{Fn: AggCount}, {Fn: AggMax, Column: ColZ}}},
		{"count-only", []GroupedAggSpec{{Fn: AggCount}}},
		{"no-count", []GroupedAggSpec{{Fn: AggAvg, Column: ColZ}, {Fn: AggMin, Column: ColWaveOffset}}},
		{"min-max-pairs", []GroupedAggSpec{{Fn: AggCount}, {Fn: AggMin, Column: ColZ}, {Fn: AggMax, Column: ColZ},
			{Fn: AggMax, Column: ColIntensity}, {Fn: AggMin, Column: ColIntensity}, {Fn: AggMin, Column: ColZ}}},
		{"every-type", []GroupedAggSpec{{Fn: AggSum, Column: ColUserData}, {Fn: AggMin, Column: ColIntensity},
			{Fn: AggMax, Column: ColScanAngle}, {Fn: AggAvg, Column: ColWaveOffset}, {Fn: AggSum, Column: ColZ},
			{Fn: AggMax, Column: ColWaveReturnPoint}, {Fn: AggSum, Column: ColWaveReturnPoint}, {Fn: AggMin, Column: ColWaveReturnPoint},
			{Fn: AggCount}}},
		{"exact-types", []GroupedAggSpec{{Fn: AggMax, Column: ColUserData}, {Fn: AggMin, Column: ColWaveOffset},
			{Fn: AggCount}, {Fn: AggMin, Column: ColWaveReturnPoint}, {Fn: AggMax, Column: ColWaveReturnPoint}}},
		{"wide", wide},
	}
}

// foldSelections are the selections every configuration runs over: all
// rows, empty, a single row, and a dense and a sparse random subset.
func foldSelections(rng *rand.Rand, n int) [][]int {
	return [][]int{nil, {}, {0}, randomSelection(rng, n, 0.5), randomSelection(rng, n, 0.01)}
}

// TestGroupedFoldPlanMatchesReference pins the fold plan to the
// row-at-a-time reference on the dense-u8, dense-u16 and hash paths, over
// every configuration and selection shape — and every spec folded alone
// must reproduce its column of the combined run bit for bit, so sharing a
// pass (or a copied bank) never changes an answer.
func TestGroupedFoldPlanMatchesReference(t *testing.T) {
	pc := foldTestCloud(20000)
	rng := rand.New(rand.NewSource(11))
	sels := foldSelections(rng, pc.Len())
	keys := []struct{ col, strategy string }{
		{ColClassification, GroupDense},
		{ColPointSourceID, ""}, // dense over all rows, hash under small selections
		{ColGPSTime, GroupHash},
	}
	for _, cfg := range foldPlanConfigs() {
		for _, key := range keys {
			for si, rows := range sels {
				checkGrouped(t, pc, rows, key.col, cfg.specs, key.strategy)
				if len(cfg.specs) > 10 {
					continue // the wide list repeats three specs; the solo check adds nothing
				}
				var combined, solo GroupedResult
				if err := pc.GroupedAggregate(rows, key.col, cfg.specs, &combined, nil); err != nil {
					t.Fatal(err)
				}
				for j, s := range cfg.specs {
					label := fmt.Sprintf("%s key %s sel %d spec %d alone", cfg.name, key.col, si, j)
					if err := pc.GroupedAggregate(rows, key.col, []GroupedAggSpec{s}, &solo, nil); err != nil {
						t.Fatal(err)
					}
					sameGroupedRef(t, label, &solo, combined.Keys, combined.Cols[j:j+1])
				}
			}
		}
	}
	var res GroupedResult
	if err := pc.GroupedAggregate(nil, ColPointSourceID, nil, &res, nil); err != nil || res.Strategy != GroupDense {
		t.Fatalf("u16 key over all rows: strategy %q, err %v; the dense-u16 arm went untested", res.Strategy, err)
	}
}

// TestGroupedAggregateErrors covers the validation paths.
func TestGroupedAggregateErrors(t *testing.T) {
	pc := groupTestCloud(t, 100)
	var res GroupedResult
	if err := pc.GroupedAggregate(nil, "nope", nil, &res, nil); err == nil {
		t.Fatal("unknown key column should fail")
	}
	if err := pc.GroupedAggregate(nil, ColClassification,
		[]GroupedAggSpec{{Fn: AggSum, Column: "nope"}}, &res, nil); err == nil {
		t.Fatal("unknown value column should fail")
	}
	if err := pc.GroupedAggregate(nil, ColClassification,
		[]GroupedAggSpec{{Fn: AggFunc(99), Column: ColZ}}, &res, nil); err == nil {
		t.Fatal("unknown aggregate should fail")
	}
}

// TestGroupedAggregateExplain checks the strategy lands in the trace.
func TestGroupedAggregateExplain(t *testing.T) {
	pc := groupTestCloud(t, 1000)
	var res GroupedResult
	ex := &Explain{}
	if err := pc.GroupedAggregate(nil, ColClassification,
		[]GroupedAggSpec{{Fn: AggCount}}, &res, ex); err != nil {
		t.Fatal(err)
	}
	if len(ex.Steps) != 1 || ex.Steps[0].Op != opGroupAgg {
		t.Fatalf("explain steps = %+v", ex.Steps)
	}
	// The detail carries the accumulate-pass count, so a regression to one
	// pass per aggregate shows in EXPLAIN: one pass per distinct value
	// column, the count riding along.
	for _, c := range []struct {
		key   string
		specs []GroupedAggSpec
		want  string
	}{
		{ColClassification, []GroupedAggSpec{{Fn: AggCount}}, "dense, 1 pass, 1 aggs, key classification"},
		{ColClassification, []GroupedAggSpec{{Fn: AggCount}, {Fn: AggAvg, Column: ColZ}}, "dense, 1 pass, 2 aggs, key classification"},
		{ColClassification, []GroupedAggSpec{{Fn: AggCount}, {Fn: AggMin, Column: ColZ}, {Fn: AggMax, Column: ColZ}}, "dense, 1 pass, 3 aggs, key classification"},
		{ColGPSTime, []GroupedAggSpec{{Fn: AggSum, Column: ColZ}, {Fn: AggMax, Column: ColIntensity}, {Fn: AggAvg, Column: ColZ}}, "hash, 2 passes, 3 aggs, key gps_time"},
	} {
		ex := &Explain{}
		if err := pc.GroupedAggregate(nil, c.key, c.specs, &res, ex); err != nil {
			t.Fatal(err)
		}
		if got := ex.Steps[0].Detail; got != c.want {
			t.Fatalf("group.agg detail = %q, want %q", got, c.want)
		}
	}
}

// TestGroupedAggregateDenseZeroAlloc enforces the dense-path steady-state
// contract: with the result record reused and the scratch pools warm, a
// grouped run performs zero heap allocations.
func TestGroupedAggregateDenseZeroAlloc(t *testing.T) {
	pc := groupTestCloud(t, 50000)
	rows := randomSelection(rand.New(rand.NewSource(3)), pc.Len(), 0.4)
	specs := []GroupedAggSpec{{Fn: AggCount}, {Fn: AggAvg, Column: ColZ}, {Fn: AggMax, Column: ColZ}}
	var res GroupedResult
	if err := pc.GroupedAggregate(rows, ColClassification, specs, &res, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := pc.GroupedAggregate(rows, ColClassification, specs, &res, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("dense grouped steady state allocates %.1f objects/op, want 0", allocs)
	}
}

// TestGroupedAggregatePoolBalance checks both strategies return every pooled
// buffer they draw.
func TestGroupedAggregatePoolBalance(t *testing.T) {
	pc := groupTestCloud(t, 30000)
	var res GroupedResult
	specs := []GroupedAggSpec{{Fn: AggCount}, {Fn: AggSum, Column: ColZ}}
	rowsBefore := SelectionPoolStats().Outstanding
	f64Before := F64PoolStats().Outstanding
	for i := 0; i < 5; i++ {
		if err := pc.GroupedAggregate(nil, ColClassification, specs, &res, nil); err != nil {
			t.Fatal(err)
		}
		if err := pc.GroupedAggregate(nil, ColGPSTime, specs, &res, nil); err != nil {
			t.Fatal(err)
		}
	}
	if d := SelectionPoolStats().Outstanding - rowsBefore; d != 0 {
		t.Fatalf("selection pool drifted by %d buffers", d)
	}
	if d := F64PoolStats().Outstanding - f64Before; d != 0 {
		t.Fatalf("f64 pool drifted by %d buffers", d)
	}
}
