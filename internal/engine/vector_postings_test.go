package engine

import (
	"fmt"
	"testing"

	"gisnav/internal/geom"
)

// buildClassTable returns a table with a known class layout: rows i with
// i%3 == 0 are "road", i%3 == 1 are "park", the rest "water".
func buildClassTable(n int) *VectorTable {
	vt := NewVectorTable()
	classes := []string{"road", "park", "water"}
	for i := 0; i < n; i++ {
		vt.Append(int64(i), classes[i%3], fmt.Sprintf("f%d", i),
			geom.NewEnvelope(float64(i), 0, float64(i)+1, 1).ToPolygon(), nil)
	}
	return vt
}

// TestClassPostingsMatchScan pins the posting-list fast path to the code
// column layout: the first selection builds the postings, later selections
// serve from them, and both agree with the raw code-column scan.
func TestClassPostingsMatchScan(t *testing.T) {
	vt := buildClassTable(300)
	if vt.HasClassPostings() {
		t.Fatal("postings should be lazy, not built by Append")
	}
	for _, class := range []string{"road", "park", "water", "absent"} {
		got := vt.SelectClassInto(class, nil, nil)
		// Reference: scan the code column directly.
		var want []int
		if code, ok := vt.classes.Code(class); ok {
			for i, c := range vt.classes.Codes() {
				if c == code {
					want = append(want, i)
				}
			}
		}
		if !equalRows(got, want) {
			t.Fatalf("class %q: postings %v, scan %v", class, got, want)
		}
	}
	if !vt.HasClassPostings() {
		t.Fatal("first class selection should build the postings")
	}
}

// TestClassPostingsDroppedOnAppend: an append (epoch bump) must drop the
// postings so the next selection sees the new row — the same invalidation
// direction as the R-tree and the point cloud's imprints.
func TestClassPostingsDroppedOnAppend(t *testing.T) {
	vt := buildClassTable(30)
	before := vt.SelectClassInto("road", nil, nil)
	epoch := vt.Epoch()

	vt.Append(999, "road", "late road", geom.NewEnvelope(50, 0, 51, 1).ToPolygon(), nil)
	if vt.HasClassPostings() {
		t.Fatal("append left stale postings alive")
	}
	if vt.Epoch() == epoch {
		t.Fatal("append did not bump the epoch")
	}

	after := vt.SelectClassInto("road", nil, nil)
	if len(after) != len(before)+1 || after[len(after)-1] != vt.Len()-1 {
		t.Fatalf("post-append selection = %v, want %v + appended row %d", after, before, vt.Len()-1)
	}
}
