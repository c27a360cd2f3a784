package engine

import (
	"testing"

	"gisnav/internal/geom"
	"gisnav/internal/lastools"
	"gisnav/internal/synth"
)

// BenchmarkColumnFirstTouch times the deferring load and one first touch
// over a generated repository of navbench's shape: ~1.07 M points of LAS
// point format 3 in 4×4 tiles. The touches are of a u8 (classification), a
// u16 (intensity) and an f64 (gps_time) column, and of a wave column the
// format lacks (wave_offset), which fills with zeros and opens no file.
// Every touch iteration loads a fresh table outside the timer.
func BenchmarkColumnFirstTouch(b *testing.B) {
	dir := b.TempDir()
	region := geom.NewEnvelope(0, 0, 3000, 3000)
	if _, err := synth.WriteTiles(synth.NewTerrain(2015, region), region, 4, 4, 0.1, 3, false, 2015, dir); err != nil {
		b.Fatal(err)
	}
	repo, err := lastools.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	load := func(b *testing.B) *PointCloud {
		pc := NewPointCloud()
		if _, err := LoadBinary(pc, repo); err != nil {
			b.Fatal(err)
		}
		return pc
	}
	b.Run("load", func(b *testing.B) {
		for range b.N {
			load(b)
		}
	})
	for _, name := range []string{ColClassification, ColIntensity, ColGPSTime, ColWaveOffset} {
		b.Run(name, func(b *testing.B) {
			for range b.N {
				b.StopTimer()
				pc := load(b)
				b.StartTimer()
				if err := pc.EnsureColumns(nil, name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
