// Package engine implements the paper's primary contribution: a
// "spatially-enabled" column store for massive point clouds (§3). Point
// clouds live in a flat table with one column per LAS attribute (X, Y, Z and
// 23 properties, §3.1); loading decodes each tile's records straight into
// the per-attribute column vectors (§3.2); spatial selections run the
// two-step filter–refine model — column imprints for coarse filtering, a
// regular grid plus exact tests for refinement (§3.3). Vector datasets
// (roads, land use) live in geometry tables so ad-hoc multi-dataset queries
// (§4.2) can join them with the cloud. Every operator reports its time into
// an EXPLAIN trace, mirroring the demo's per-operator view.
package engine

import (
	"gisnav/internal/colstore"
	"gisnav/internal/las"
)

// Flat point-cloud table column names, in schema order: the X, Y, Z
// coordinates plus 23 point properties (the LAS 1.4 attribute set the paper
// counts in §1). Wave-packet fields are carried as zeros when the source
// format lacks them, exactly as a relational NULL-free flat table would.
const (
	ColX               = "x"
	ColY               = "y"
	ColZ               = "z"
	ColIntensity       = "intensity"
	ColReturnNumber    = "return_number"
	ColNumReturns      = "number_of_returns"
	ColScanDirection   = "scan_direction_flag"
	ColEdgeOfFlight    = "edge_of_flight_line"
	ColClassification  = "classification"
	ColSynthetic       = "synthetic_flag"
	ColKeyPoint        = "key_point_flag"
	ColWithheld        = "withheld_flag"
	ColOverlap         = "overlap_flag"
	ColScannerChannel  = "scanner_channel"
	ColScanAngle       = "scan_angle"
	ColUserData        = "user_data"
	ColPointSourceID   = "point_source_id"
	ColGPSTime         = "gps_time"
	ColRed             = "red"
	ColGreen           = "green"
	ColBlue            = "blue"
	ColNIR             = "nir"
	ColWaveDescriptor  = "wave_descriptor"
	ColWaveOffset      = "wave_offset"
	ColWavePacketSize  = "wave_packet_size"
	ColWaveReturnPoint = "wave_return_location"
)

// PointCloudSchema returns the 26-attribute flat table schema.
func PointCloudSchema() colstore.Schema {
	return colstore.Schema{Fields: []colstore.Field{
		{Name: ColX, Type: colstore.F64},
		{Name: ColY, Type: colstore.F64},
		{Name: ColZ, Type: colstore.F64},
		{Name: ColIntensity, Type: colstore.U16},
		{Name: ColReturnNumber, Type: colstore.U8},
		{Name: ColNumReturns, Type: colstore.U8},
		{Name: ColScanDirection, Type: colstore.U8},
		{Name: ColEdgeOfFlight, Type: colstore.U8},
		{Name: ColClassification, Type: colstore.U8},
		{Name: ColSynthetic, Type: colstore.U8},
		{Name: ColKeyPoint, Type: colstore.U8},
		{Name: ColWithheld, Type: colstore.U8},
		{Name: ColOverlap, Type: colstore.U8},
		{Name: ColScannerChannel, Type: colstore.U8},
		{Name: ColScanAngle, Type: colstore.I32},
		{Name: ColUserData, Type: colstore.U8},
		{Name: ColPointSourceID, Type: colstore.U16},
		{Name: ColGPSTime, Type: colstore.F64},
		{Name: ColRed, Type: colstore.U16},
		{Name: ColGreen, Type: colstore.U16},
		{Name: ColBlue, Type: colstore.U16},
		{Name: ColNIR, Type: colstore.U16},
		{Name: ColWaveDescriptor, Type: colstore.U8},
		{Name: ColWaveOffset, Type: colstore.I64},
		{Name: ColWavePacketSize, Type: colstore.I32},
		{Name: ColWaveReturnPoint, Type: colstore.F64},
	}}
}

// boolByte converts a flag to its column representation.
func boolByte(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// appendLASPoint appends one LAS point across the schema's columns. cols
// must follow PointCloudSchema order.
func appendLASPoint(cols []colstore.Column, p las.Point) {
	cols[0].AppendValue(p.X)
	cols[1].AppendValue(p.Y)
	cols[2].AppendValue(p.Z)
	cols[3].AppendValue(float64(p.Intensity))
	cols[4].AppendValue(float64(p.ReturnNumber))
	cols[5].AppendValue(float64(p.NumReturns))
	cols[6].AppendValue(boolByte(p.ScanDirection))
	cols[7].AppendValue(boolByte(p.EdgeOfFlight))
	cols[8].AppendValue(float64(p.Classification))
	cols[9].AppendValue(0)  // synthetic
	cols[10].AppendValue(0) // key point
	cols[11].AppendValue(0) // withheld
	cols[12].AppendValue(0) // overlap
	cols[13].AppendValue(0) // scanner channel
	cols[14].AppendValue(float64(p.ScanAngleRank))
	cols[15].AppendValue(float64(p.UserData))
	cols[16].AppendValue(float64(p.PointSourceID))
	cols[17].AppendValue(p.GPSTime)
	cols[18].AppendValue(float64(p.Red))
	cols[19].AppendValue(float64(p.Green))
	cols[20].AppendValue(float64(p.Blue))
	// NIR synthesised from the green channel for formats without it.
	cols[21].AppendValue(float64(p.Green) / 2)
	cols[22].AppendValue(0) // wave descriptor
	cols[23].AppendValue(0) // wave offset
	cols[24].AppendValue(0) // wave packet size
	cols[25].AppendValue(0) // wave return location
}
