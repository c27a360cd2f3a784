package engine

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"gisnav/internal/colstore"
	"gisnav/internal/geom"
	"gisnav/internal/grid"
)

// naiveFilterSel is the pre-kernel reference arm: per-row operator
// re-dispatch through ColumnPred.Matches over float64-widened values.
// Property tests and benchmarks compare the compiled kernels against it.
func naiveFilterSel(col colstore.Column, rows []int, pred ColumnPred) []int {
	var out []int
	for _, r := range rows {
		if pred.Matches(col.Value(r)) {
			out = append(out, r)
		}
	}
	return out
}

// naiveFilterAll scans the whole column with the reference arm.
func naiveFilterAll(col colstore.Column, pred ColumnPred) []int {
	var out []int
	for i, n := 0, col.Len(); i < n; i++ {
		if pred.Matches(col.Value(i)) {
			out = append(out, i)
		}
	}
	return out
}

// randomTestCloud fills every schema column with pseudo-random values drawn
// from its full native domain, plus adversarial float values (NaN, ±Inf, ±0
// and subnormals) in the float columns.
func randomTestCloud(n int, seed int64) *PointCloud {
	rng := rand.New(rand.NewSource(seed))
	pc := NewPointCloud()
	for _, f := range pc.Schema().Fields {
		col := pc.Column(f.Name)
		for i := 0; i < n; i++ {
			switch f.Type {
			case colstore.F64:
				switch rng.Intn(50) {
				case 0:
					col.AppendValue(math.NaN())
				case 1:
					col.AppendValue(math.Inf(1))
				case 2:
					col.AppendValue(math.Inf(-1))
				case 3:
					col.AppendValue(math.Copysign(0, -1))
				case 4:
					col.AppendValue(0)
				case 5:
					sub := math.Float64frombits(uint64(1 + rng.Int63n(1<<52-1)))
					if rng.Intn(2) == 0 {
						sub = -sub
					}
					col.AppendValue(sub)
				default:
					col.AppendValue((rng.Float64() - 0.5) * 2000)
				}
			case colstore.I64:
				col.AppendValue(float64(rng.Int63n(1<<40) - 1<<39))
			case colstore.I32:
				col.AppendValue(float64(rng.Int31()) - float64(1<<30))
			case colstore.U16:
				col.AppendValue(float64(rng.Intn(1 << 16)))
			case colstore.U8:
				col.AppendValue(float64(rng.Intn(1 << 8)))
			default:
				col.AppendValue(float64(rng.Intn(100)))
			}
		}
	}
	return pc
}

// randomPred draws a predicate over col with adversarial constants: the
// column's own values and their one-ulp neighbours (so `<` vs `<=` is
// decided on floats), ±0, the smallest subnormal, ±MaxFloat64, integral,
// non-integral, out-of-range, negative, NaN and ±Inf.
func randomPred(rng *rand.Rand, col colstore.Column, name string) ColumnPred {
	ops := []CmpOp{CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE, CmpBetween}
	specials := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	randConst := func() float64 {
		if n := col.Len(); n > 0 && rng.Intn(3) == 0 {
			v := col.Value(rng.Intn(n))
			switch rng.Intn(3) {
			case 0:
				return math.Nextafter(v, math.Inf(-1))
			case 1:
				return math.Nextafter(v, math.Inf(1))
			}
			return v
		}
		switch rng.Intn(13) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		case 3:
			return float64(rng.Intn(100000)) + 0.5 // non-integral
		case 4:
			return -float64(rng.Intn(1000)) // below unsigned domains
		case 5:
			return 1e18 // above every integer domain
		case 6:
			return specials[rng.Intn(len(specials))]
		default:
			if rng.Intn(2) == 0 {
				return float64(rng.Intn(70000)) // integral, often in range
			}
			return (rng.Float64() - 0.5) * 150000
		}
	}
	p := ColumnPred{Column: name, Op: ops[rng.Intn(len(ops))], Value: randConst()}
	if p.Op == CmpBetween {
		p.Value2 = randConst()
	}
	return p
}

func equalRows(a, b []int) bool {
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

// TestKernelMatchesNaiveAllTypes is the core property test: for every
// column type and random adversarial predicates, the compiled kernel's
// block and selection paths must be bit-identical to the per-row Matches
// reference.
func TestKernelMatchesNaiveAllTypes(t *testing.T) {
	pc := randomTestCloud(3000, 1)
	rng := rand.New(rand.NewSource(2))
	columns := []string{ColZ, ColIntensity, ColClassification, ColScanAngle, ColWaveOffset, ColGPSTime}
	// A fixed scattered selection vector exercises the gather path.
	var sel []int
	for i := 0; i < pc.Len(); i += 1 + rng.Intn(4) {
		sel = append(sel, i)
	}
	for _, name := range columns {
		col := pc.Column(name)
		for trial := 0; trial < 300; trial++ {
			pred := randomPred(rng, col, name)
			k := CompileFilterKernel(col, pred.Op)
			a := k.Bind(pred.Value, pred.Value2)
			wantAll := naiveFilterAll(col, pred)
			gotAll := k.FilterBlock(a, 0, col.Len(), nil)
			if !equalRows(gotAll, wantAll) {
				t.Fatalf("%s %s: block kernel %d rows, naive %d rows", name, pred, len(gotAll), len(wantAll))
			}
			wantSel := naiveFilterSel(col, sel, pred)
			gotSel := k.FilterSel(a, sel, nil)
			if !equalRows(gotSel, wantSel) {
				t.Fatalf("%s %s: sel kernel %d rows, naive %d rows", name, pred, len(gotSel), len(wantSel))
			}
		}
	}
}

// TestKernelBlockSubranges checks block boundaries: filtering a column in
// arbitrary chunks must concatenate to the full-scan result.
func TestKernelBlockSubranges(t *testing.T) {
	pc := randomTestCloud(1000, 3)
	rng := rand.New(rand.NewSource(4))
	col := pc.Column(ColIntensity)
	for trial := 0; trial < 50; trial++ {
		pred := randomPred(rng, col, ColIntensity)
		k := CompileFilterKernel(col, pred.Op)
		a := k.Bind(pred.Value, pred.Value2)
		var chunked []int
		for lo := 0; lo < col.Len(); {
			hi := lo + 1 + rng.Intn(200)
			if hi > col.Len() {
				hi = col.Len()
			}
			chunked = k.FilterBlock(a, lo, hi, chunked)
			lo = hi
		}
		if want := naiveFilterAll(col, pred); !equalRows(chunked, want) {
			t.Fatalf("%s: chunked blocks disagree with full scan", pred)
		}
	}
}

// TestFilterRangeParallelIdentical forces the parallel block path of a
// range predicate and asserts bit-identical output with the serial arm.
func TestFilterRangeParallelIdentical(t *testing.T) {
	pc := randomTestCloud(300_000, 7)
	preds := []ColumnPred{{Column: ColScanAngle, Op: CmpBetween, Value: -20000, Value2: 20000}}
	ex := &Explain{}
	serial, err := pc.FilterRows(nil, preds, ex)
	if err != nil {
		t.Fatal(err)
	}
	pc.Parallel = true
	par, err := pc.FilterRows(nil, preds, ex)
	pc.Parallel = false
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) == 0 {
		t.Fatal("test range selected nothing; widen it")
	}
	if !equalRows(serial, par) {
		t.Fatalf("parallel %d rows vs serial %d rows", len(par), len(serial))
	}
}

// TestFilterRowsDoesNotClobberCallerSlice is the regression test for the
// old `out := rows[:0]` aliasing: the caller's selection vector must be
// untouched after FilterRows.
func TestFilterRowsDoesNotClobberCallerSlice(t *testing.T) {
	pc := randomTestCloud(500, 8)
	mine := make([]int, 0, pc.Len())
	for i := 0; i < pc.Len(); i++ {
		mine = append(mine, i)
	}
	snapshot := append([]int(nil), mine...)
	ex := &Explain{}
	out, err := pc.FilterRows(mine, []ColumnPred{
		{Column: ColClassification, Op: CmpLE, Value: 100},
		{Column: ColIntensity, Op: CmpGT, Value: 30000},
	}, ex)
	if err != nil {
		t.Fatal(err)
	}
	if !equalRows(mine, snapshot) {
		t.Fatal("FilterRows mutated the caller's slice")
	}
	if len(out) > 0 && &out[0] == &mine[0] {
		t.Fatal("FilterRows returned a vector aliasing the caller's backing array")
	}
	// And the result equals the chained naive passes.
	want := naiveFilterSel(pc.Column(ColIntensity),
		naiveFilterSel(pc.Column(ColClassification), snapshot, ColumnPred{Column: ColClassification, Op: CmpLE, Value: 100}),
		ColumnPred{Column: ColIntensity, Op: CmpGT, Value: 30000})
	if !equalRows(out, want) {
		t.Fatalf("filtered %d rows, naive %d", len(out), len(want))
	}
}

// TestFilterRowsMatchesNaiveChains runs random multi-predicate conjunctions
// through FilterRows and the naive reference.
func TestFilterRowsMatchesNaiveChains(t *testing.T) {
	pc := randomTestCloud(2000, 9)
	rng := rand.New(rand.NewSource(10))
	columns := []string{ColZ, ColIntensity, ColClassification, ColScanAngle, ColWaveOffset}
	for trial := 0; trial < 80; trial++ {
		var preds []ColumnPred
		for i := 0; i < 1+rng.Intn(3); i++ {
			name := columns[rng.Intn(len(columns))]
			preds = append(preds, randomPred(rng, pc.Column(name), name))
		}
		ex := &Explain{}
		got, err := pc.FilterRows(nil, preds, ex)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int, pc.Len())
		for i := range want {
			want[i] = i
		}
		for _, p := range preds {
			want = naiveFilterSel(pc.Column(p.Column), want, p)
		}
		if !equalRows(got, want) {
			t.Fatalf("preds %v: kernel %d rows, naive %d rows", preds, len(got), len(want))
		}
		RecycleRows(got)
	}
}

// TestSelectRegionMatchesScan is the spatial property test: the pooled
// imprints+grid pipeline must return exactly the rows of the exhaustive
// no-index reference, over random boxes and polygons.
func TestSelectRegionMatchesScan(t *testing.T) {
	pc, _ := buildCloud(t, 0.05)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		var region grid.Region
		if trial%2 == 0 {
			x, y := rng.Float64()*900, rng.Float64()*900
			w, h := rng.Float64()*300+1, rng.Float64()*300+1
			region = grid.GeometryRegion{G: geom.NewEnvelope(x, y, x+w, y+h).ToPolygon()}
		} else {
			cx, cy := rng.Float64()*1000, rng.Float64()*1000
			r := rng.Float64()*200 + 10
			region = grid.GeometryRegion{G: geom.Polygon{Shell: geom.Ring{Points: []geom.Point{
				{X: cx - r, Y: cy - r}, {X: cx + r, Y: cy - r/2}, {X: cx + r/2, Y: cy + r}, {X: cx - r/2, Y: cy + r/2},
			}}}}
		}
		sel := pc.SelectRegionRows(region)
		scan := scanRegion(pc, region)
		if !equalRows(sel, scan) {
			t.Fatalf("trial %d: indexed %d rows, scan %d rows", trial, len(sel), len(scan))
		}
		RecycleRows(sel)
	}
}

// TestRecycledVectorsAreReused exercises the pool contract: a released
// vector with sufficient capacity comes back on the next query.
func TestRecycledVectorsAreReused(t *testing.T) {
	pc := randomTestCloud(1000, 12)
	preds := []ColumnPred{{Column: ColIntensity, Op: CmpBetween, Value: 0, Value2: 1 << 16}}
	rows, err := pc.FilterRows(nil, preds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != pc.Len() {
		t.Fatalf("full-range scan kept %d of %d rows", len(rows), pc.Len())
	}
	RecycleRows(rows)
	again, err := pc.FilterRows(nil, preds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cap(again) < pc.Len() {
		t.Fatal("second query did not reuse a pooled vector of adequate capacity")
	}
	RecycleRows(again)
}

// sameFloat is == that also equates NaN with NaN.
func sameFloat(x, y float64) bool { return x == y || x != x && y != y }

// TestBindInterval pins the one operator → interval mapping on both value
// domains: the float bind (f64 and widened i64) and the integer bind
// narrowed to u8 and i32, where a complement is a wrapped interval. Each
// row states the bound args exactly and is then probed against
// ColumnPred.Matches — every u8 value, the i32 edges, and the float
// specials — so a wrong bound fails even where the args look plausible.
func TestBindInterval(t *testing.T) {
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	tiny, huge := math.SmallestNonzeroFloat64, math.MaxFloat64
	const lo32, hi32 = math.MinInt32, math.MaxInt32
	// inInt is the integer loop's test: one 64-bit modular compare.
	inInt := func(a KernelArgs, v float64) bool {
		lo := uint64(int64(a.lo))
		return uint64(int64(v))-lo <= uint64(int64(a.hi))-lo
	}
	var every8 []float64
	for v := 0; v <= math.MaxUint8; v++ {
		every8 = append(every8, float64(v))
	}
	domains := map[string]struct {
		bind   func(CmpOp) bindFn
		test   func(KernelArgs, float64) bool
		probes []float64
	}{
		"f64": {bindFloat, KernelArgs.matches, []float64{nan, -inf, inf, 0, negZero, tiny, -tiny, huge, -huge, 1, 6, 6.5, math.Nextafter(6, 0), math.Nextafter(6, 7)}},
		"u8":  {func(op CmpOp) bindFn { return bindInt(op, 0, math.MaxUint8) }, inInt, every8},
		"i32": {func(op CmpOp) bindFn { return bindInt(op, lo32, hi32) }, inInt, []float64{lo32, lo32 + 1, -1, 0, 1, hi32 - 1, hi32}},
	}
	args := func(lo, hi float64, inv int) KernelArgs { return KernelArgs{lo: lo, hi: hi, inv: inv} }
	empty := args(inf, -inf, 0)
	u8None, u8All := args(256, -1, 0), args(0, 255, 0)
	i32None, i32All := args(hi32+1, lo32-1, 0), args(lo32, hi32, 0)
	cases := []struct {
		dom  string
		pred ColumnPred
		want KernelArgs
	}{
		// Float-compare domain.
		{"f64", ColumnPred{Op: CmpEQ, Value: 0}, args(0, 0, 0)}, // matches -0
		{"f64", ColumnPred{Op: CmpNE, Value: 6}, args(6, 6, 1)},
		{"f64", ColumnPred{Op: CmpNE, Value: nan}, args(nan, nan, 1)}, // matches every row, NaN included
		{"f64", ColumnPred{Op: CmpEQ, Value: nan}, args(nan, nan, 0)},
		{"f64", ColumnPred{Op: CmpLT, Value: -inf}, empty},
		{"f64", ColumnPred{Op: CmpGT, Value: inf}, empty},
		{"f64", ColumnPred{Op: CmpLT, Value: inf}, args(-inf, huge, 0)}, // excludes +Inf
		{"f64", ColumnPred{Op: CmpGT, Value: -inf}, args(-huge, inf, 0)},
		{"f64", ColumnPred{Op: CmpLT, Value: 0}, args(-inf, -tiny, 0)}, // excludes -0
		{"f64", ColumnPred{Op: CmpGT, Value: negZero}, args(tiny, inf, 0)},
		{"f64", ColumnPred{Op: CmpLT, Value: 6}, args(-inf, math.Nextafter(6, 0), 0)},
		{"f64", ColumnPred{Op: CmpLE, Value: 6}, args(-inf, 6, 0)},
		{"f64", ColumnPred{Op: CmpGE, Value: 6}, args(6, inf, 0)},
		{"f64", ColumnPred{Op: CmpLE, Value: nan}, args(-inf, nan, 0)},
		{"f64", ColumnPred{Op: CmpBetween, Value: 7, Value2: 2}, args(7, 2, 0)},
		{"f64", ColumnPred{Op: 0, Value: 6}, empty}, // unknown operator
		// Native-integer domain: u8.
		{"u8", ColumnPred{Op: CmpEQ, Value: 6}, args(6, 6, 0)},
		{"u8", ColumnPred{Op: CmpEQ, Value: negZero}, args(0, 0, 0)},
		{"u8", ColumnPred{Op: CmpEQ, Value: 6.5}, u8None},
		{"u8", ColumnPred{Op: CmpEQ, Value: 300}, u8None},
		{"u8", ColumnPred{Op: CmpEQ, Value: -1}, u8None},
		{"u8", ColumnPred{Op: CmpNE, Value: 6}, args(7, 5, 0)}, // wraps past 255 to 5
		{"u8", ColumnPred{Op: CmpNE, Value: 0}, args(1, -1, 0)},
		{"u8", ColumnPred{Op: CmpNE, Value: 6.5}, u8All},
		{"u8", ColumnPred{Op: CmpNE, Value: 300}, u8All},
		{"u8", ColumnPred{Op: CmpNE, Value: nan}, u8All},
		{"u8", ColumnPred{Op: CmpLT, Value: 6.5}, args(0, 6, 0)},
		{"u8", ColumnPred{Op: CmpLT, Value: 6}, args(0, 5, 0)},
		{"u8", ColumnPred{Op: CmpLT, Value: 0}, u8None},
		{"u8", ColumnPred{Op: CmpLT, Value: 1000}, u8All},
		{"u8", ColumnPred{Op: CmpLT, Value: -inf}, u8None},
		{"u8", ColumnPred{Op: CmpLT, Value: inf}, u8All},
		{"u8", ColumnPred{Op: CmpGT, Value: inf}, u8None},
		{"u8", ColumnPred{Op: CmpGT, Value: 6}, args(7, 255, 0)},
		{"u8", ColumnPred{Op: CmpGT, Value: -0.5}, u8All},
		{"u8", ColumnPred{Op: CmpGE, Value: 6.5}, args(7, 255, 0)},
		{"u8", ColumnPred{Op: CmpGT, Value: 6.5}, args(7, 255, 0)},
		{"u8", ColumnPred{Op: CmpGE, Value: -inf}, u8All},
		{"u8", ColumnPred{Op: CmpLE, Value: inf}, u8All},
		{"u8", ColumnPred{Op: CmpLE, Value: nan}, u8None},
		{"u8", ColumnPred{Op: CmpBetween, Value: 2.5, Value2: 7.5}, args(3, 7, 0)},
		{"u8", ColumnPred{Op: CmpBetween, Value: 7, Value2: 2}, u8None},
		{"u8", ColumnPred{Op: CmpBetween, Value: -10, Value2: 1000}, u8All},
		{"u8", ColumnPred{Op: 0, Value: 6}, u8None},
		// Native-integer domain: i32 at ±2³¹.
		{"i32", ColumnPred{Op: CmpLT, Value: 1 << 31}, i32All},
		{"i32", ColumnPred{Op: CmpGE, Value: 1 << 31}, i32None},
		{"i32", ColumnPred{Op: CmpGT, Value: hi32}, i32None},
		{"i32", ColumnPred{Op: CmpEQ, Value: hi32}, args(hi32, hi32, 0)},
		{"i32", ColumnPred{Op: CmpLT, Value: -1 << 31}, i32None},
		{"i32", ColumnPred{Op: CmpLE, Value: -1 << 31}, args(lo32, lo32, 0)},
		{"i32", ColumnPred{Op: CmpGE, Value: -1 << 31}, i32All},
		{"i32", ColumnPred{Op: CmpNE, Value: -1 << 31}, args(lo32+1, lo32-1, 0)},
		{"i32", ColumnPred{Op: CmpBetween, Value: -1<<31 - 0.5, Value2: 1<<31 + 0.5}, i32All},
	}
	for _, c := range cases {
		d := domains[c.dom]
		got := d.bind(c.pred.Op)(c.pred.Value, c.pred.Value2)
		if !sameFloat(got.lo, c.want.lo) || !sameFloat(got.hi, c.want.hi) || got.inv != c.want.inv {
			t.Errorf("%s over %s: bound [%g, %g] inv %d, want [%g, %g] inv %d",
				c.pred, c.dom, got.lo, got.hi, got.inv, c.want.lo, c.want.hi, c.want.inv)
			continue
		}
		probes := d.probes
		if c.dom == "f64" {
			probes = append(probes, c.pred.Value, c.pred.Value2)
		}
		for _, v := range probes {
			if d.test(got, v) != c.pred.Matches(v) {
				t.Errorf("%s over %s: value %g matches %v, Matches says %v", c.pred, c.dom, v, d.test(got, v), c.pred.Matches(v))
			}
		}
	}
}

// FuzzFilterKernel holds every column type's block and selection paths to
// ColumnPred.Matches over a fuzzed operator, two raw-bit constants (NaN
// payloads and subnormals included) and a short value vector: each 8-byte
// word is one row, read as float64 bits for f64 and truncated for the
// integer and dictionary columns.
func FuzzFilterKernel(f *testing.F) {
	add := func(op CmpOp, v1, v2 float64, vals ...float64) {
		var data []byte
		for _, v := range vals {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
		}
		f.Add(uint8(op), math.Float64bits(v1), math.Float64bits(v2), data)
	}
	add(CmpLT, 1, 0, 1, math.Nextafter(1, 0), math.Nextafter(1, 2), math.NaN())
	add(CmpNE, math.NaN(), 0, math.NaN(), 0, math.Inf(-1))
	add(CmpEQ, 0, 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0)
	add(CmpGT, math.Inf(1), 0, math.Inf(1), math.MaxFloat64)
	add(CmpBetween, -math.MaxFloat64, math.Inf(1), math.Inf(-1), -math.MaxFloat64, 3)
	f.Fuzz(func(t *testing.T, op uint8, c1, c2 uint64, data []byte) {
		pred := ColumnPred{Op: CmpOp(op % 9), Value: math.Float64frombits(c1), Value2: math.Float64frombits(c2)}
		var f64 []float64
		var i64 []int64
		var i32 []int32
		var u16 []uint16
		var u8 []uint8
		str := colstore.NewStrColumn()
		for ; len(data) >= 8; data = data[8:] {
			w := binary.LittleEndian.Uint64(data)
			f64 = append(f64, math.Float64frombits(w))
			i64 = append(i64, int64(w))
			i32 = append(i32, int32(w))
			u16 = append(u16, uint16(w))
			u8 = append(u8, uint8(w))
			str.AppendValue(float64(uint32(w)))
		}
		cols := []colstore.Column{colstore.NewF64Column(f64), colstore.NewI64Column(i64),
			colstore.NewI32Column(i32), colstore.NewU16Column(u16), colstore.NewU8Column(u8), str}
		for _, col := range cols {
			k := CompileFilterKernel(col, pred.Op)
			a := k.Bind(pred.Value, pred.Value2)
			var even []int
			for i := 0; i < col.Len(); i += 2 {
				even = append(even, i)
			}
			if got, want := k.FilterBlock(a, 0, col.Len(), nil), naiveFilterAll(col, pred); !equalRows(got, want) {
				t.Fatalf("%v %s: block %v, Matches %v", col.DType(), pred, got, want)
			}
			want := naiveFilterSel(col, even, pred)
			if got := k.FilterSel(a, even, even[:0]); !equalRows(got, want) {
				t.Fatalf("%v %s: selection %v, Matches %v", col.DType(), pred, got, want)
			}
		}
	})
}
