package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gisnav/internal/geom"
	"gisnav/internal/las"
	"gisnav/internal/lastools"
)

// openRepo opens the tile repository at dir.
func openRepo(t *testing.T, dir string) *lastools.Repository {
	t.Helper()
	repo, err := lastools.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

// Rows appended to a deferring table wait in the tails of its non-resident
// columns; a second load onto it defers again while no tail holds rows,
// decodes the columns a touch made resident, and touches every column
// first once the tails hold rows. Every sequence ends bit-identical to the
// row-wise load of the same points, and Save writes every column.
func TestLoadBinaryDeferredAppends(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	for k := range 3 {
		writeTile(t, dirA, fmt.Sprintf("a%d", k), uint8(k), k == 1, randomPoints(loadChunk+k, int64(k)))
		writeTile(t, dirB, fmt.Sprintf("b%d", k), 3-uint8(k), k == 2, randomPoints(700+k, int64(10+k)))
	}
	repoA, repoB := openRepo(t, dirA), openRepo(t, dirB)
	extra := randomPoints(300, 77)
	cls := uint64(1) << 8

	for _, c := range []struct {
		name   string
		touch  uint64 // touched after the first load
		append bool   // rows appended between the loads
		// resident is the mask after the second load.
		resident uint64
	}{
		{"defer twice", 0, false, coordColumns},
		{"touched column decodes", cls, false, coordColumns | cls},
		{"tails touch everything", cls, true, allColumns},
		{"tails after no touch", 0, true, allColumns},
	} {
		t.Run(c.name, func(t *testing.T) {
			pc, want := NewPointCloud(), rowWise(t, repoA)
			if _, err := LoadBinary(pc, repoA); err != nil {
				t.Fatal(err)
			}
			if err := pc.ensureColumns(0, nil, c.touch); err != nil {
				t.Fatal(err)
			}
			if c.append {
				pc.AppendLAS(extra)
				want.AppendLAS(extra)
				if err := pc.validateSameLength(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := LoadBinary(pc, repoB); err != nil {
				t.Fatal(err)
			}
			for _, path := range repoB.Files() {
				want.AppendLAS(readTile(t, path))
			}
			if res := pc.resident.Load(); res != c.resident {
				t.Fatalf("resident mask %#x after the second load, want %#x", res, c.resident)
			}
			pc.AppendLAS(extra[:7])
			want.AppendLAS(extra[:7])
			dir := filepath.Join(t.TempDir(), "db")
			if err := pc.Save(dir); err != nil {
				t.Fatal(err)
			}
			if res := pc.resident.Load(); res != allColumns {
				t.Fatalf("resident mask %#x after Save, want every column", res)
			}
			sameColumnBits(t, c.name, pc, want)
			opened, err := OpenPointCloud(dir)
			if err != nil {
				t.Fatal(err)
			}
			sameColumnBits(t, c.name+", reopened", opened, want)
		})
	}
}

// Four goroutines touch overlapping column sets of one deferring table at
// degree 2: every column ends equal to the row-wise load's, no pool
// drifts, and the epoch stays where it was.
func TestLoadBinaryConcurrentFirstTouch(t *testing.T) {
	repo := writeRepo(t, false)
	want := rowWise(t, repo)
	sets := [][]string{
		{ColClassification, ColIntensity},
		{ColIntensity, ColGPSTime, ColRed},
		{ColRed, ColGreen, ColBlue, ColNIR, ColWaveOffset},
		{ColClassification, ColScanAngle, ColUserData, ColGPSTime},
	}
	for round := range 3 {
		pc := NewPointCloud()
		if _, err := LoadBinary(pc, repo); err != nil {
			t.Fatal(err)
		}
		before, epoch := morselPoolSnapshot(), pc.Epoch()
		var wg sync.WaitGroup
		errs := make([]error, len(sets))
		for g, set := range sets {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var mask uint64
				for _, name := range set {
					mask |= pc.columnBit(name)
				}
				if errs[g] = pc.ensureColumns(2, nil, mask); errs[g] != nil {
					return
				}
				for _, name := range set {
					if n := pc.Column(name).Len(); n != want.Len() {
						errs[g] = fmt.Errorf("column %s holds %d rows, want %d", name, n, want.Len())
					}
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if d := morselPoolSnapshot() - before; d != 0 {
			t.Fatalf("round %d: concurrent first touches drifted pools by %d", round, d)
		}
		if pc.Epoch() != epoch {
			t.Fatalf("round %d: publishing columns moved the epoch", round)
		}
		sameColumnBits(t, fmt.Sprintf("round %d", round), pc, want)
	}
}

// A tile that changed or vanished since the load fails the first touch of
// a column it carries with an error naming it, and Column panics with that
// error; the columns stay non-resident, x, y and z keep answering, and a
// column no tile's format carries is still filled with zeros without
// opening a file.
func TestLoadBinaryTileChanged(t *testing.T) {
	for name, change := range tileChanges {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for k := range 3 {
				writeTile(t, dir, fmt.Sprintf("tile%d", k), 1, false, randomPoints(loadChunk+5, int64(k)))
			}
			repo := openRepo(t, dir)
			pc := NewPointCloud()
			if _, err := LoadBinary(pc, repo); err != nil {
				t.Fatal(err)
			}
			epoch := pc.Epoch()
			path := repo.Files()[1]
			if err := change(path); err != nil {
				t.Fatal(err)
			}

			err := pc.EnsureColumns(nil, ColClassification, ColIntensity)
			if !errors.Is(err, ErrColumnLoad) || !strings.Contains(err.Error(), path) {
				t.Fatalf("first touch after the tile changed: %v, want a column load error naming %s", err, path)
			}
			if res := pc.resident.Load(); res != coordColumns {
				t.Fatalf("a failed touch left resident mask %#x", res)
			}
			func() {
				defer func() {
					p := recover()
					perr, ok := p.(error)
					if !ok || !strings.Contains(perr.Error(), path) {
						t.Fatalf("Column panicked with %v, want an error naming %s", p, path)
					}
				}()
				pc.Column(ColClassification)
				t.Fatal("Column returned a column over a changed tile")
			}()
			if pc.Epoch() != epoch {
				t.Fatal("a failed first touch moved the epoch")
			}
			if got := len(pc.SelectRegionRows(wholeBox)); got != pc.Len() {
				t.Fatalf("x and y answer %d of %d rows after a failed touch", got, pc.Len())
			}
			for _, name := range []string{ColWaveOffset, ColRed} { // format 1 carries neither
				col := pc.Column(name)
				if lo, hi, ok := col.MinMax(); col.Len() != pc.Len() || !ok || lo != 0 || hi != 0 {
					t.Fatalf("%s: %d rows in [%v, %v], want %d zeros", name, col.Len(), lo, hi, pc.Len())
				}
			}
		})
	}
}

// wholeBox covers every coordinate randomPoints draws.
var wholeBox = boxRegion(geom.NewEnvelope(-1e12, -1e12, 1e12, 1e12))

// tileChanges change a tile file after a load: cut it, rewrite it with new
// bytes of the same size and a new modification time, or remove it.
var tileChanges = map[string]func(path string) error{
	"truncated": func(path string) error {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(path, b[:len(b)-las.PointFormatSize(1)], 0o644)
	},
	"rewritten": func(path string) error {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		for i := las.HeaderSize; i < len(b); i++ {
			b[i] ^= 0x5A
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
		later := fi.ModTime().Add(time.Minute)
		return os.Chtimes(path, later, later)
	},
	"removed": os.Remove,
}
