// Package las implements the ASPRS LAS 1.2 binary exchange format for
// airborne LIDAR point clouds — the de-facto standard the paper's pipeline
// ingests (§1, §3.2) — covering point data record formats 0–3, plus a
// compressed sibling format ("LAZ-sim") standing in for Rapidlasso LAZ.
//
// LAZ-sim substitution note: real LAZ is a proprietary arithmetic-coded
// format. LAZ-sim keeps the property that matters to the experiments — tiles
// must be decoded field-by-field on load and are several times smaller at
// rest — using delta + zigzag varint coding of the quantised coordinates.
package las

import "math"

// Point is one LIDAR return with the full LAS attribute set. Coordinates
// are real-world (already descaled) float64 values; the raw int32 grid
// representation is reconstructed from the file header's scale and offset.
type Point struct {
	X, Y, Z        float64
	Intensity      uint16
	ReturnNumber   uint8 // 1-based, 3 bits in the file
	NumReturns     uint8 // 3 bits in the file
	ScanDirection  bool
	EdgeOfFlight   bool
	Classification uint8
	ScanAngleRank  int8
	UserData       uint8
	PointSourceID  uint16
	GPSTime        float64 // formats 1 and 3
	Red            uint16  // formats 2 and 3
	Green          uint16
	Blue           uint16
}

// packFlags encodes the return/flag byte of a point record.
func (p Point) packFlags() uint8 {
	b := p.ReturnNumber & 0x07
	b |= (p.NumReturns & 0x07) << 3
	if p.ScanDirection {
		b |= 1 << 6
	}
	if p.EdgeOfFlight {
		b |= 1 << 7
	}
	return b
}

// unpackFlags decodes the return/flag byte into the point.
func (p *Point) unpackFlags(b uint8) {
	p.ReturnNumber = b & 0x07
	p.NumReturns = (b >> 3) & 0x07
	p.ScanDirection = b&(1<<6) != 0
	p.EdgeOfFlight = b&(1<<7) != 0
}

// PointFormatSize returns the record length in bytes of a point data format,
// or 0 for unsupported formats.
func PointFormatSize(format uint8) int {
	switch format {
	case 0:
		return 20
	case 1:
		return 28
	case 2:
		return 26
	case 3:
		return 34
	default:
		return 0
	}
}

// FormatHasGPS reports whether the format carries a GPS time field.
func FormatHasGPS(format uint8) bool { return format == 1 || format == 3 }

// FormatHasRGB reports whether the format carries colour fields.
func FormatHasRGB(format uint8) bool { return format == 2 || format == 3 }

// quantise converts a real coordinate to its raw int32 grid value.
func quantise(v, scale, offset float64) int32 {
	return int32(math.Round((v - offset) / scale))
}

// dequantise converts a raw grid value back to a real coordinate.
func dequantise(raw int32, scale, offset float64) float64 {
	return float64(raw)*scale + offset
}
