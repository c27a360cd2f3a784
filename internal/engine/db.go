package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gisnav/internal/geom"
	"gisnav/internal/grid"
)

// DB is the catalog of a spatially-enabled column store instance: named
// point-cloud tables and vector tables, plus the cross-dataset operators
// the demo's second scenario runs.
type DB struct {
	mu     sync.RWMutex
	clouds map[string]*PointCloud
	vector map[string]*VectorTable

	// gen counts registrations. Plans bind table pointers, not names, so a
	// table re-registered under a name its plans resolved is invisible to
	// the tables' own epochs; plans capture gen beside them and replan when
	// it moves.
	gen atomic.Uint64
}

// NewDB returns an empty catalog.
func NewDB() *DB {
	return &DB{
		clouds: map[string]*PointCloud{},
		vector: map[string]*VectorTable{},
	}
}

// RegisterPointCloud installs a point-cloud table under name, replacing
// any table of that name, and bumps the catalog generation.
func (db *DB) RegisterPointCloud(name string, pc *PointCloud) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.clouds[name] = pc
	db.gen.Add(1)
}

// RegisterVector installs a vector table under name, replacing any table
// of that name, and bumps the catalog generation.
func (db *DB) RegisterVector(name string, vt *VectorTable) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.vector[name] = vt
	db.gen.Add(1)
}

// Generation returns the catalog generation: a monotonic counter bumped by
// every Register call. Capture it before resolving table names; a later
// mismatch means a name may now resolve to a different table.
func (db *DB) Generation() uint64 { return db.gen.Load() }

// PointCloud looks up a point-cloud table.
func (db *DB) PointCloud(name string) (*PointCloud, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	pc, ok := db.clouds[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown point cloud table %q", name)
	}
	return pc, nil
}

// Vector looks up a vector table.
func (db *DB) Vector(name string) (*VectorTable, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	vt, ok := db.vector[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown vector table %q", name)
	}
	return vt, nil
}

// Tables lists all table names, point clouds first, each group sorted.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var pcs, vts []string
	for n := range db.clouds {
		pcs = append(pcs, n)
	}
	for n := range db.vector {
		vts = append(vts, n)
	}
	sort.Strings(pcs)
	sort.Strings(vts)
	return append(pcs, vts...)
}

// IsPointCloud reports whether name is a registered point-cloud table.
func (db *DB) IsPointCloud(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.clouds[name]
	return ok
}

// PointsNearFeaturesRun is the scenario-2 spatial join: rows of the point
// cloud within distance d of any geometry in the vector row set ("LIDAR
// points near an area characterised as fast transit road", §4.2). The
// feature geometries fuse into one region so the imprint filter and the
// refinement grid run a single pass; rows, run and ex are
// SelectRegionRowsRun's. No features (or a bad distance) is an empty
// region: an empty non-nil selection.
func (db *DB) PointsNearFeaturesRun(run *Run, pc *PointCloud, vt *VectorTable, featRows []int, d float64, ex *Explain) []int {
	start := time.Now()
	coll := vt.CollectGeometries(featRows)
	if ex != nil {
		ex.Add(opJoinCollect, fmt.Sprintf("%d feature geometries, buffer %g", len(featRows), d),
			len(featRows), len(coll.Geometries), time.Since(start))
	}
	return pc.SelectRegionRowsRun(run, grid.NewMultiBuffer(coll.Geometries, d), ex)
}

// PointsInFeaturesRun selects point-cloud rows inside any geometry of the
// vector row set (containment join); see PointsNearFeaturesRun.
func (db *DB) PointsInFeaturesRun(run *Run, pc *PointCloud, vt *VectorTable, featRows []int, ex *Explain) []int {
	start := time.Now()
	coll := vt.CollectGeometries(featRows)
	if ex != nil {
		ex.Add(opJoinCollect, fmt.Sprintf("%d feature geometries", len(featRows)),
			len(featRows), len(coll.Geometries), time.Since(start))
	}
	return pc.SelectRegionRowsRun(run, grid.NewMultiRegion(coll.Geometries), ex)
}

// StorageReport summarises the footprint of everything in the catalog.
type StorageReport struct {
	CloudRows      int
	CloudBytes     int
	ImprintBytes   int
	VectorFeatures int
	VectorBytes    int
}

// Storage builds a storage report; imprints are built if missing so the
// report reflects a queried database.
func (db *DB) Storage() StorageReport {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var r StorageReport
	for _, pc := range db.clouds {
		pc.EnsureImprints()
		r.CloudRows += pc.Len()
		r.CloudBytes += pc.Bytes()
		r.ImprintBytes += pc.IndexBytes()
	}
	for _, vt := range db.vector {
		r.VectorFeatures += vt.Len()
		r.VectorBytes += vt.Bytes()
	}
	return r
}

// Extent returns the union of all registered extents.
func (db *DB) Extent() geom.Envelope {
	db.mu.RLock()
	defer db.mu.RUnlock()
	env := geom.EmptyEnvelope()
	for _, pc := range db.clouds {
		env.ExpandToEnvelope(pc.Extent())
	}
	for _, vt := range db.vector {
		for i := 0; i < vt.Len(); i++ {
			env.ExpandToEnvelope(vt.Envelope(i))
		}
	}
	return env
}
