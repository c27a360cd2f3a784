package server

import (
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"gisnav/internal/engine"
	"gisnav/internal/geom"
	"gisnav/internal/las"
	"gisnav/internal/lastools"
	"gisnav/internal/synth"
)

// A tile that changed or vanished after a deferring load makes every
// statement that binds a column the tile carries answer an internal error
// naming the tile — never a 200 with wrong rows — while statements over x,
// y and z keep answering.
func TestQueryChangedTile(t *testing.T) {
	for name, change := range map[string]func(path string) error{
		"truncated": func(path string) error { return os.Truncate(path, las.HeaderSize+10) },
		"rewritten": func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for i := las.HeaderSize; i < len(b); i++ {
				b[i] ^= 0x5A
			}
			if err := os.WriteFile(path, b, 0o644); err != nil {
				return err
			}
			later := time.Now().Add(time.Hour)
			return os.Chtimes(path, later, later)
		},
		"removed": os.Remove,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			region := geom.NewEnvelope(0, 0, 600, 600)
			if _, err := synth.WriteTiles(synth.NewTerrain(71, region), region, 2, 2, 0.02, 3, false, 11, dir); err != nil {
				t.Fatal(err)
			}
			repo, err := lastools.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			pc := engine.NewPointCloud()
			if _, err := engine.LoadBinary(pc, repo); err != nil {
				t.Fatal(err)
			}
			db := engine.NewDB()
			db.RegisterPointCloud("ahn2", pc)
			h := New(Config{DB: db}).Handler()
			path := repo.Files()[2]
			if err := change(path); err != nil {
				t.Fatal(err)
			}

			for _, q := range []string{
				"SELECT count(*), avg(intensity) FROM ahn2",
				"SELECT x, classification FROM ahn2 LIMIT 5",
				"SELECT classification, count(*) FROM ahn2 GROUP BY classification",
			} {
				rec := doQuery(h, q)
				if rec.Code == http.StatusOK {
					t.Fatalf("%q over a changed tile answered 200: %s", q, rec.Body.String())
				}
				er := decodeError(t, rec)
				if er.Error.Code != CodeInternal || !strings.Contains(er.Error.Message, path) {
					t.Fatalf("%q: %d %+v, want an internal error naming %s", q, rec.Code, er.Error, path)
				}
			}
			rec := doQuery(h, "SELECT count(*), avg(z) FROM ahn2 WHERE ST_Contains(ST_MakeEnvelope(-1, -1, 601, 601), ST_Point(x, y))")
			if rec.Code != http.StatusOK {
				t.Fatalf("a statement over x, y and z: %d %s", rec.Code, rec.Body.String())
			}
		})
	}
}
