// Package lastools reimplements the file-based point-cloud workflow the
// paper uses as its baseline (§2.2, §2.3): a repository of LAS/LAZ tiles
// queried by clipping, accelerated by header bounding-box pruning, an
// optional metadata store (so headers need not be re-inspected per query,
// as in reference [18]), a lassort-style space-filling-curve re-sort, and a
// lasindex-style quadtree sidecar enabling partial file reads.
package lastools

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gisnav/internal/geom"
	"gisnav/internal/las"
)

// TileInfo is the cached metadata of one tile — what the paper's baseline
// keeps in a DBMS to avoid opening every file header per query.
type TileInfo struct {
	Path       string
	Env        geom.Envelope
	PointCount uint32
	Compressed bool
	HasIndex   bool
}

// Repository is a directory of LAS/LAZ tiles.
type Repository struct {
	dir   string
	files []string
	meta  []TileInfo // populated by ScanMetadata
}

// Open lists the tiles in dir. No file content is read.
func Open(dir string) (*Repository, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lastools: %w", err)
	}
	r := &Repository{dir: dir}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch strings.ToLower(filepath.Ext(e.Name())) {
		case ".las", ".laz":
			r.files = append(r.files, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(r.files)
	return r, nil
}

// Files returns the tile paths.
func (r *Repository) Files() []string { return r.files }

// ScanMetadata inspects every tile header once and caches extent and count —
// the ETL step [18] performs so later queries can prune without file opens.
func (r *Repository) ScanMetadata() error {
	meta := make([]TileInfo, 0, len(r.files))
	for _, path := range r.files {
		h, err := las.ReadAnyFileHeader(path)
		if err != nil {
			return fmt.Errorf("lastools: %s: %w", path, err)
		}
		meta = append(meta, TileInfo{
			Path:       path,
			Env:        geom.NewEnvelope(h.MinX, h.MinY, h.MaxX, h.MaxY),
			PointCount: h.PointCount,
			Compressed: strings.EqualFold(filepath.Ext(path), ".laz"),
			HasIndex:   fileExists(path + ".lax"),
		})
	}
	r.meta = meta
	return nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// QueryStats describes the work one clip query performed.
type QueryStats struct {
	FilesConsidered int // tiles in the repository
	HeaderReads     int // headers opened to decide pruning
	FilesPruned     int // skipped via bbox test
	FilesScanned    int // tiles whose points were read
	IndexedReads    int // tiles served through a .lax index
	PointsRead      int // point records decoded
	Matches         int
}

// ClipBox returns every point inside env, with work statistics. Tiles whose
// header bbox misses env are pruned; indexed tiles are read partially via
// their .lax sidecar; everything else is scanned fully.
func (r *Repository) ClipBox(env geom.Envelope) ([]las.Point, QueryStats, error) {
	return r.clip(env, func(p las.Point) bool {
		return env.ContainsPoint(p.X, p.Y)
	})
}

// ClipGeometry returns every point inside geometry g (bbox prefilter + exact
// containment test) — the "select all LIDAR points within a given region"
// query of scenario 1 (§4.1).
func (r *Repository) ClipGeometry(g geom.Geometry) ([]las.Point, QueryStats, error) {
	env := g.Envelope()
	return r.clip(env, func(p las.Point) bool {
		return env.ContainsPoint(p.X, p.Y) && geom.ContainsPoint(g, p.X, p.Y)
	})
}

func (r *Repository) clip(env geom.Envelope, pred func(las.Point) bool) ([]las.Point, QueryStats, error) {
	var st QueryStats
	st.FilesConsidered = len(r.files)
	var out []las.Point
	scan := func(info TileInfo) error {
		if !info.Env.Intersects(env) {
			st.FilesPruned++
			return nil
		}
		if info.HasIndex && !info.Compressed {
			pts, read, err := clipIndexed(info.Path, env, pred)
			if err != nil {
				return err
			}
			st.IndexedReads++
			st.FilesScanned++
			st.PointsRead += read
			out = append(out, pts...)
			return nil
		}
		_, pts, err := las.ReadAnyFile(info.Path)
		if err != nil {
			return err
		}
		st.FilesScanned++
		st.PointsRead += len(pts)
		for _, p := range pts {
			if pred(p) {
				out = append(out, p)
			}
		}
		return nil
	}

	if r.meta != nil {
		for _, info := range r.meta {
			if err := scan(info); err != nil {
				return out, st, err
			}
		}
	} else {
		// No metadata store: every header must be inspected per query.
		for _, path := range r.files {
			h, err := las.ReadAnyFileHeader(path)
			if err != nil {
				return out, st, err
			}
			st.HeaderReads++
			info := TileInfo{
				Path:       path,
				Env:        geom.NewEnvelope(h.MinX, h.MinY, h.MaxX, h.MaxY),
				Compressed: strings.EqualFold(filepath.Ext(path), ".laz"),
				HasIndex:   fileExists(path + ".lax"),
			}
			if err := scan(info); err != nil {
				return out, st, err
			}
		}
	}
	st.Matches = len(out)
	return out, st, nil
}
