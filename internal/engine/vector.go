package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gisnav/internal/colstore"
	"gisnav/internal/geom"
	"gisnav/internal/rtree"
)

// VectorTable stores classed vector features (the OSM and Urban Atlas
// datasets of the demo): a geometry column plus dictionary-encoded thematic
// attributes, with cached envelopes for cheap spatial prefiltering and a
// lazily built STR R-tree over them (created on the first spatial query,
// like the point cloud's imprints).
type VectorTable struct {
	ids     *colstore.I64Column
	classes *colstore.StrColumn
	names   *colstore.StrColumn
	geoms   []geom.Geometry
	envs    []geom.Envelope
	numeric map[string]*colstore.F64Column

	mu    sync.Mutex
	index *rtree.Tree
	// classPost is the lazily built per-class posting list: for each
	// dictionary code, the ascending row ids carrying it. Built on the first
	// SelectClassInto (one O(n) scan), it turns every later class selection
	// into an O(|result|) copy instead of a full code-column scan. Dropped
	// together with the R-tree on Append (the epoch bump), like the point
	// cloud's imprints.
	classPost map[uint32][]int

	// epoch counts appends, mirroring PointCloud.Epoch: prepared SQL plans
	// capture it (their star expansion and conjunct classification read the
	// attribute schema) and replan when it moves.
	epoch atomic.Uint64
}

// NewVectorTable returns an empty vector table.
func NewVectorTable() *VectorTable {
	return &VectorTable{
		ids:     &colstore.I64Column{},
		classes: colstore.NewStrColumn(),
		names:   colstore.NewStrColumn(),
		numeric: map[string]*colstore.F64Column{},
	}
}

// Append adds one feature. attrs supplies optional numeric attributes
// (e.g. pop_density); all rows of an attribute column stay aligned by
// zero-filling columns introduced late.
func (vt *VectorTable) Append(id int64, class, name string, g geom.Geometry, attrs map[string]float64) {
	row := vt.Len()
	vt.ids.Append(id)
	vt.classes.AppendString(class)
	vt.names.AppendString(name)
	vt.geoms = append(vt.geoms, g)
	vt.envs = append(vt.envs, g.Envelope())
	for k, v := range attrs {
		col, ok := vt.numeric[k]
		if !ok {
			col = &colstore.F64Column{}
			vt.numeric[k] = col
		}
		for col.Len() < row {
			col.Append(0)
		}
		col.Append(v)
	}
	for _, col := range vt.numeric {
		for col.Len() < row+1 {
			col.Append(0)
		}
	}
	vt.epoch.Add(1) // bump first; see PointCloud.InvalidateIndexes
	vt.mu.Lock()
	vt.index = nil     // appended features invalidate the spatial index
	vt.classPost = nil // and the class posting lists
	vt.mu.Unlock()
}

// Epoch returns the table's append epoch (see PointCloud.Epoch).
func (vt *VectorTable) Epoch() uint64 { return vt.epoch.Load() }

// ensureIndex builds the envelope R-tree if absent, returning it.
func (vt *VectorTable) ensureIndex() *rtree.Tree {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	if vt.index == nil {
		items := make([]rtree.Item, len(vt.envs))
		for i, env := range vt.envs {
			items[i] = rtree.Item{Env: env, ID: i}
		}
		vt.index = rtree.BuildSTR(items, 0)
	}
	return vt.index
}

// Len reports the feature count.
func (vt *VectorTable) Len() int { return len(vt.geoms) }

// ID returns the feature id at row i.
func (vt *VectorTable) ID(i int) int64 { return vt.ids.Values()[i] }

// Class returns the thematic class at row i.
func (vt *VectorTable) Class(i int) string { return vt.classes.String(i) }

// Name returns the feature name at row i.
func (vt *VectorTable) Name(i int) string { return vt.names.String(i) }

// Geometry returns the geometry at row i.
func (vt *VectorTable) Geometry(i int) geom.Geometry { return vt.geoms[i] }

// Envelope returns the cached envelope at row i.
func (vt *VectorTable) Envelope(i int) geom.Envelope { return vt.envs[i] }

// Numeric returns the value of a numeric attribute at row i (0 if absent).
func (vt *VectorTable) Numeric(attr string, i int) float64 {
	col, ok := vt.numeric[attr]
	if !ok || i >= col.Len() {
		return 0
	}
	return col.Values()[i]
}

// NumericAttrs lists the numeric attribute names.
func (vt *VectorTable) NumericAttrs() []string {
	out := make([]string, 0, len(vt.numeric))
	for k := range vt.numeric {
		out = append(out, k)
	}
	return out
}

// SelectClassInto appends to rows the rows whose class equals class,
// resolving the constant through the dictionary once (no string compares
// per row). Callers on the repeated-query path pass a pooled buffer
// (AcquireRows) so the class scan allocates nothing steady-state. The first call builds the per-class
// posting lists (one scan over the code column); every later call copies
// the class's posting list, O(|result|) instead of O(n). ex may be nil to
// skip the trace (and its formatting allocations).
func (vt *VectorTable) SelectClassInto(class string, rows []int, ex *Explain) []int {
	start := time.Now()
	in := len(rows)
	if code, ok := vt.classes.Code(class); ok {
		rows = append(rows, vt.ensurePostings()[code]...)
	}
	if ex != nil {
		ex.Add("filter.class", fmt.Sprintf("class = %q (postings)", class), vt.Len(), len(rows)-in, time.Since(start))
	}
	return rows
}

// ensurePostings builds the per-class posting lists if absent, returning
// them. The returned map is immutable once built (Append drops and rebuilds
// rather than mutating), so callers may read it without holding vt.mu.
func (vt *VectorTable) ensurePostings() map[uint32][]int {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	if vt.classPost == nil {
		post := make(map[uint32][]int, vt.classes.DictSize())
		for i, c := range vt.classes.Codes() {
			post[c] = append(post[c], i)
		}
		vt.classPost = post
	}
	return vt.classPost
}

// HasClassPostings reports whether the posting lists are currently built.
func (vt *VectorTable) HasClassPostings() bool {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	return vt.classPost != nil
}

// SelectIntersects returns the rows whose geometry intersects g. The STR
// R-tree over feature envelopes prefilters; survivors get the exact test.
func (vt *VectorTable) SelectIntersects(g geom.Geometry, ex *Explain) []int {
	return vt.SelectIntersectsInto(g, nil, ex)
}

// SelectIntersectsInto is SelectIntersects appending into rows (see
// SelectClassInto). Appended row ids ascend: the R-tree reports candidates
// in ascending id order, so the result composes with sorted-intersection
// consumers.
func (vt *VectorTable) SelectIntersectsInto(g geom.Geometry, rows []int, ex *Explain) []int {
	start := time.Now()
	idx := vt.ensureIndex()
	env := g.Envelope()
	candidates := idx.SearchIDs(env)
	in := len(rows)
	for _, i := range candidates {
		if geom.Intersects(vt.geoms[i], g) {
			rows = append(rows, i)
		}
	}
	if ex != nil {
		ex.Add("vector.intersects",
			fmt.Sprintf("rtree pass %d/%d", len(candidates), vt.Len()),
			vt.Len(), len(rows)-in, time.Since(start))
	}
	return rows
}

// CollectGeometries assembles the geometries of a row set into a collection,
// the shape the spatial-join region constructors consume.
func (vt *VectorTable) CollectGeometries(rows []int) geom.Collection {
	c := geom.Collection{Geometries: make([]geom.Geometry, 0, len(rows))}
	for _, r := range rows {
		c.Geometries = append(c.Geometries, vt.geoms[r])
	}
	return c
}

// Bytes reports the in-memory footprint of the thematic columns (geometry
// payloads excluded; they are shared structures).
func (vt *VectorTable) Bytes() int {
	n := vt.ids.Bytes() + vt.classes.Bytes() + vt.names.Bytes()
	for _, col := range vt.numeric {
		n += col.Bytes()
	}
	return n
}
