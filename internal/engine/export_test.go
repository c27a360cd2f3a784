package engine

// Test tables and references shared with the external engine_test package
// (ablate_test.go), which imports internal/ablate — a package that itself
// imports engine, so its tests cannot live in package engine.
var (
	BuildCloud      = buildCloud
	RandomTestCloud = randomTestCloud
	GroupTestCloud  = groupTestCloud
	NaiveFilterAll  = naiveFilterAll
	EqualRows       = equalRows
	BoxRegion       = boxRegion
)
