// Package synth generates the deterministic synthetic datasets that stand in
// for the paper's three demo datasets (§4): a "mini Netherlands" LIDAR scan
// replacing AHN2, a classed road/river/POI network replacing OpenStreetMap,
// and a land-use polygon coverage with Urban Atlas nomenclature codes
// replacing the Urban Atlas.
//
// Everything derives from splitmix64 streams seeded explicitly, so datasets
// regenerate bit-for-bit across runs and machines — a requirement for the
// reproducibility of the experiment suite.
package synth

// splitmix64 advances and mixes a 64-bit state (Steele et al.).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// RNG is a small deterministic generator over splitmix64.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 { return lo + r.Float64()*(hi-lo) }

// hash2 mixes a seed with 2-D lattice coordinates into 64 bits; the
// stateless primitive under value noise.
func hash2(seed uint64, ix, iy int64) uint64 {
	h := seed
	h = splitmix64(h ^ uint64(ix)*0x9E3779B97F4A7C15)
	h = splitmix64(h ^ uint64(iy)*0xC2B2AE3D27D4EB4F)
	return h
}

// hashUnit maps hash2 output to [0, 1).
func hashUnit(seed uint64, ix, iy int64) float64 {
	return float64(hash2(seed, ix, iy)>>11) / (1 << 53)
}
