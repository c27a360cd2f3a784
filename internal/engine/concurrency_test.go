package engine

import (
	"sync"
	"testing"

	"gisnav/internal/geom"
)

// Concurrent readers: many goroutines querying one PointCloud (including
// the first query that triggers the imprint build) must agree and be
// race-free (run with -race).
func TestConcurrentQueries(t *testing.T) {
	pc, _ := buildCloud(t, 0.05)
	boxes := []geom.Envelope{
		geom.NewEnvelope(0, 0, 300, 300),
		geom.NewEnvelope(200, 200, 700, 600),
		geom.NewEnvelope(500, 100, 900, 900),
		geom.NewEnvelope(50, 600, 450, 950),
	}
	// Reference results, computed serially first on a twin table so the
	// concurrent run still exercises the cold-start index build.
	twin, _ := buildCloud(t, 0.05)
	want := make([]int, len(boxes))
	for i, b := range boxes {
		want[i] = len(twin.SelectRegionRows(boxRegion(b)))
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*len(boxes))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, b := range boxes {
				got := len(pc.SelectRegionRows(boxRegion(b)))
				if got != want[i] {
					errs <- "box result mismatch under concurrency"
				}
				ex := &Explain{}
				if _, err := pc.Aggregate(nil, AggCount, "", ex); err != nil {
					errs <- err.Error()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// Concurrent vector-table queries share the lazily built R-tree.
func TestConcurrentVectorQueries(t *testing.T) {
	_, _, osm, _ := buildDemoDB(t)
	q := geom.NewEnvelope(100, 100, 1500, 1500).ToPolygon()
	ref := len(osm.SelectIntersects(q, &Explain{}))

	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := len(osm.SelectIntersects(q, &Explain{})); got != ref {
				errs <- "vector result mismatch under concurrency"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
