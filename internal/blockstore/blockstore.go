// Package blockstore reimplements the block/patch storage model of the
// PostgreSQL pointcloud extension and Oracle SDO_PC, the DBMS baseline the
// paper deviates from (§1, §2.3): points are sorted along a space-filling
// curve, grouped into fixed-size patches, and each patch is stored as a
// compressed blob with its bounding box. Queries prune patches by bbox and
// decompress only the survivors — cheap on storage, but decompression sits
// on the critical path of every selection.
package blockstore

import (
	"bytes"
	"fmt"
	"sort"

	"gisnav/internal/geom"
	"gisnav/internal/las"
	"gisnav/internal/sfc"
)

// Options configures patch construction.
type Options struct {
	// BlockSize is the number of points per patch. Defaults to 4096.
	BlockSize int
	// Curve orders points before patching (Hilbert by default, as in
	// Oracle's Hilbert-sorted blocks).
	Curve sfc.Curve
	// Scale is the coordinate quantisation of the patch blobs. Defaults to
	// 0.01 (centimetre grid).
	Scale float64
	// PointFormat is the LAS point format preserved inside patches.
	// Defaults to 1 (XYZ + GPS time).
	PointFormat uint8
}

func (o Options) withDefaults() Options {
	if o.BlockSize <= 0 {
		o.BlockSize = 4096
	}
	if o.Scale <= 0 {
		o.Scale = 0.01
	}
	if o.PointFormat == 0 || las.PointFormatSize(o.PointFormat) == 0 {
		// Format 0 is indistinguishable from "unset" in the zero Options
		// value; patches always carry GPS time, so format 1 is the floor.
		o.PointFormat = 1
	}
	return o
}

// Block is one compressed patch.
type Block struct {
	Env   geom.Envelope
	Count int
	blob  []byte
}

// Store is a collection of patches over one point cloud.
type Store struct {
	opts   Options
	blocks []Block
	extent geom.Envelope
}

// Build sorts pts along the configured curve, slices them into patches of
// BlockSize points and compresses each patch.
func Build(pts []las.Point, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	s := &Store{opts: opts, extent: geom.EmptyEnvelope()}
	if len(pts) == 0 {
		return s, nil
	}
	for _, p := range pts {
		s.extent.ExpandToPoint(p.X, p.Y)
	}
	g := sfc.NewGrid(s.extent, 16)
	order := make([]int, len(pts))
	keys := make([]uint64, len(pts))
	for i, p := range pts {
		order[i] = i
		keys[i] = g.Key(opts.Curve, p.X, p.Y)
	}
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })

	sorted := make([]las.Point, len(pts))
	for i, j := range order {
		sorted[i] = pts[j]
	}
	for start := 0; start < len(sorted); start += opts.BlockSize {
		end := start + opts.BlockSize
		if end > len(sorted) {
			end = len(sorted)
		}
		if err := s.appendBlock(sorted[start:end]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// appendBlock compresses one patch. The blob reuses the LAZ-sim coder: a
// delta/varint-coded stream with a per-patch header, mirroring how pointcloud
// patches are dimensionally compressed blobs.
func (s *Store) appendBlock(pts []las.Point) error {
	env := geom.EmptyEnvelope()
	for _, p := range pts {
		env.ExpandToPoint(p.X, p.Y)
	}
	var buf bytes.Buffer
	err := las.WriteLAZ(&buf, s.opts.PointFormat, s.opts.Scale, s.opts.Scale, s.opts.Scale,
		s.extent.MinX, s.extent.MinY, 0, pts)
	if err != nil {
		return fmt.Errorf("blockstore: compressing patch: %w", err)
	}
	s.blocks = append(s.blocks, Block{Env: env, Count: len(pts), blob: buf.Bytes()})
	return nil
}

// Blocks reports the number of patches.
func (s *Store) Blocks() int { return len(s.blocks) }

// Bytes reports the compressed payload size plus per-patch metadata.
func (s *Store) Bytes() int {
	n := 0
	for _, b := range s.blocks {
		n += len(b.blob) + 4*8 + 4 // bbox + count
	}
	return n
}

// QueryStats describes the work one query performed.
type QueryStats struct {
	BlocksConsidered   int
	BlocksPruned       int
	BlocksDecompressed int
	PointsDecompressed int
	Matches            int
}

// QueryBox returns the points inside env.
func (s *Store) QueryBox(env geom.Envelope) ([]las.Point, QueryStats, error) {
	return s.query(env, func(p las.Point) bool {
		return env.ContainsPoint(p.X, p.Y)
	})
}

// QueryGeometry returns the points inside geometry g.
func (s *Store) QueryGeometry(g geom.Geometry) ([]las.Point, QueryStats, error) {
	env := g.Envelope()
	return s.query(env, func(p las.Point) bool {
		return env.ContainsPoint(p.X, p.Y) && geom.ContainsPoint(g, p.X, p.Y)
	})
}

func (s *Store) query(env geom.Envelope, pred func(las.Point) bool) ([]las.Point, QueryStats, error) {
	var st QueryStats
	st.BlocksConsidered = len(s.blocks)
	var out []las.Point
	for _, b := range s.blocks {
		if !b.Env.Intersects(env) {
			st.BlocksPruned++
			continue
		}
		_, pts, err := las.ReadLAZ(bytes.NewReader(b.blob))
		if err != nil {
			return out, st, fmt.Errorf("blockstore: decompressing patch: %w", err)
		}
		st.BlocksDecompressed++
		st.PointsDecompressed += len(pts)
		for _, p := range pts {
			if pred(p) {
				out = append(out, p)
			}
		}
	}
	st.Matches = len(out)
	return out, st, nil
}
