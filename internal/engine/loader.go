package engine

import (
	"bytes"
	"fmt"
	"time"

	"gisnav/internal/colstore"
	"gisnav/internal/las"
	"gisnav/internal/lastools"
)

// The paper's binary bulk loader (§3.2): each LAS/LAZ tile is decoded once
// into per-attribute binary C-array dumps, which are then appended to the
// flat table columns through the COPY BINARY path — no text rendering, no
// text parsing. The CSV loader below is the conventional route the paper
// measures against (LAZ → CSV → parse), which it reports as roughly an
// order of magnitude slower end-to-end (one day vs. almost a week for
// AHN2).

// LoadStats reports what a bulk load did, split into the conversion stage
// (decode + dump/render) and the append stage (COPY into the table).
type LoadStats struct {
	Files       int
	Points      int
	ConvertTime time.Duration
	AppendTime  time.Duration
	StageBytes  int64 // bytes of intermediate representation produced
}

// Total returns the end-to-end load time.
func (s LoadStats) Total() time.Duration { return s.ConvertTime + s.AppendTime }

// PointsPerSecond reports load throughput.
func (s LoadStats) PointsPerSecond() float64 {
	t := s.Total().Seconds()
	if t == 0 {
		return 0
	}
	return float64(s.Points) / t
}

// binaryDumps renders pts into one binary C-array dump per column.
func binaryDumps(pts []las.Point) ([]bytes.Buffer, int64, error) {
	staging := PointCloudSchema().NewColumns()
	for _, p := range pts {
		appendLASPoint(staging, p)
	}
	dumps := make([]bytes.Buffer, len(staging))
	var total int64
	for i, c := range staging {
		n, err := c.WriteBinary(&dumps[i])
		if err != nil {
			return nil, 0, fmt.Errorf("engine: dumping column %d: %w", i, err)
		}
		total += n
	}
	return dumps, total, nil
}

// finishLoad ends a bulk load under the epoch contract and returns its
// error. A load that failed before its first column write leaves the table
// as it was; a clean one is an append (PointCloud.appended); one that
// failed after it — an unreadable later tile, a failed COPY — is a
// rewrite: the columns hold rows no index covers and may disagree on
// length, so nothing built over them may extend.
func (pc *PointCloud) finishLoad(wrote bool, err error) error {
	if err == nil {
		err = validateSameLength(pc.cols)
	} else if !wrote {
		return err
	}
	if err != nil {
		pc.InvalidateIndexes()
		return err
	}
	pc.appended()
	return nil
}

// LoadBinary loads every tile of a repository through the binary path.
func LoadBinary(pc *PointCloud, repo *lastools.Repository) (st LoadStats, err error) {
	wrote := false
	defer func() { err = pc.finishLoad(wrote, err) }()
	for _, path := range repo.Files() {
		start := time.Now()
		_, pts, err := las.ReadAnyFile(path)
		if err != nil {
			return st, fmt.Errorf("engine: %s: %w", path, err)
		}
		dumps, bytesOut, err := binaryDumps(pts)
		if err != nil {
			return st, err
		}
		st.ConvertTime += time.Since(start)
		st.StageBytes += bytesOut

		start = time.Now()
		wrote = true
		for i, c := range pc.cols {
			if err := c.AppendBinary(&dumps[i], len(pts)); err != nil {
				return st, fmt.Errorf("engine: copy binary %s col %d: %w", path, i, err)
			}
		}
		st.AppendTime += time.Since(start)
		st.Files++
		st.Points += len(pts)
	}
	return st, nil
}

// LoadCSV loads every tile through the conventional route: decode the tile,
// render all attributes to CSV text, then tokenise and parse the text back
// into the columns. This is the baseline the binary loader replaces.
func LoadCSV(pc *PointCloud, repo *lastools.Repository) (st LoadStats, err error) {
	wrote := false
	defer func() { err = pc.finishLoad(wrote, err) }()
	for _, path := range repo.Files() {
		start := time.Now()
		_, pts, err := las.ReadAnyFile(path)
		if err != nil {
			return st, fmt.Errorf("engine: %s: %w", path, err)
		}
		staging := PointCloudSchema().NewColumns()
		for _, p := range pts {
			appendLASPoint(staging, p)
		}
		var csv bytes.Buffer
		if err := colstore.WriteCSV(&csv, staging); err != nil {
			return st, err
		}
		st.ConvertTime += time.Since(start)
		st.StageBytes += int64(csv.Len())

		start = time.Now()
		wrote = true
		rows, err := colstore.AppendCSV(&csv, pc.cols)
		if err != nil {
			return st, fmt.Errorf("engine: csv parse %s: %w", path, err)
		}
		if rows != len(pts) {
			return st, fmt.Errorf("engine: csv row count %d != %d", rows, len(pts))
		}
		st.AppendTime += time.Since(start)
		st.Files++
		st.Points += len(pts)
	}
	return st, nil
}

// LoadPoints appends decoded points directly (used by tests and generators
// that bypass the file formats).
func LoadPoints(pc *PointCloud, pts []las.Point) {
	pc.AppendLAS(pts)
}
