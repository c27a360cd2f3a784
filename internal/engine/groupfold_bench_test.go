package engine

import (
	"math/rand"
	"sync"
	"testing"

	"gisnav/internal/las"
)

var (
	foldBenchOnce  sync.Once
	foldBenchCloud *PointCloud
	foldBenchSel   []int
)

// foldBenchFixture builds the shape that exposes the grouped fold's
// read-modify-write latency chain: 1M rows whose u8 key is 60% one dominant
// class in short runs (consecutive selected rows keep hitting the same bank
// slot — uniform random keys spread the chain over many slots and hide it),
// with a 40% selection over it.
func foldBenchFixture() (*PointCloud, []int) {
	foldBenchOnce.Do(func() {
		rng := rand.New(rand.NewSource(2015))
		minor := []uint8{1, 6, 9, 26}
		pts := make([]las.Point, benchRows)
		for i := range pts {
			class := uint8(2)
			if rng.Float64() >= 0.6 {
				class = minor[rng.Intn(len(minor))]
			}
			pts[i] = las.Point{
				Z:              rng.Float64()*120 - 10,
				Intensity:      uint16(rng.Intn(1 << 16)),
				Classification: class,
				GPSTime:        float64(class),
			}
		}
		foldBenchCloud = NewPointCloud()
		foldBenchCloud.AppendLAS(pts)
		foldBenchSel = randomSelection(rng, benchRows, 0.4)
	})
	return foldBenchCloud, foldBenchSel
}

// BenchmarkGroupedFold measures the grouped accumulate passes in ns per
// selected row: the dense u8 arm over the navbench scan.thematic shape
// (count+avg) and the pan.hist shape (count+min+max), over f64 and u16
// value columns, plus the slot-vector arm (an f64 key carrying the same
// class codes takes the hash strategy). One iteration executes every fold
// instantiation the CI bench smoke needs to touch.
func BenchmarkGroupedFold(b *testing.B) {
	pc, sel := foldBenchFixture()
	shapes := []struct {
		name string
		fns  []AggFunc
	}{
		{"count+avg", []AggFunc{AggCount, AggAvg}},
		{"count+min+max", []AggFunc{AggCount, AggMin, AggMax}},
		{"count+sum+min+max", []AggFunc{AggCount, AggSum, AggMin, AggMax}},
	}
	for _, key := range []string{ColClassification, ColGPSTime} {
		for _, val := range []string{ColZ, ColIntensity} {
			for _, sh := range shapes {
				specs := make([]GroupedAggSpec, len(sh.fns))
				for j, fn := range sh.fns {
					specs[j] = GroupedAggSpec{Fn: fn, Column: val}
				}
				b.Run(key+"/"+val+"/"+sh.name, func(b *testing.B) {
					var res GroupedResult
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := pc.GroupedAggregate(sel, key, specs, &res, nil); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(sel)), "ns/row")
				})
			}
		}
	}
}
