// Test fixture for //lint:ignore: a directive silences exactly one
// diagnostic of the named analyzer on its target line — no more, no
// blanket, and only when the analyzer name matches. Exercised with the
// epochguard analyzer.
package suppress

// Table mirrors an epoch-versioned table: its slice fields are
// epoch-owned.
type Table struct {
	epoch uint64
	vals  []float64
	keys  []float64
}

// standalone: a directive on its own line suppresses the next line only.
func standalone(t *Table) {
	//lint:ignore epochguard fixture: deliberately unversioned to test suppression
	t.vals = nil
	t.keys = nil // want `mutation of epoch-owned field t.keys`
}

// trailing: a trailing directive suppresses its own line.
func trailing(t *Table) {
	t.vals = nil //lint:ignore epochguard fixture: trailing form
	t.keys = nil // want `mutation of epoch-owned field t.keys`
}

// exactlyOne: two violations share a line; one directive silences only one
// of them.
func exactlyOne(t *Table) {
	//lint:ignore epochguard fixture: suppresses one of the two on this line
	t.vals, t.keys = nil, nil // want `mutation of epoch-owned field t.(vals|keys)`
}

// wrongAnalyzer: a directive naming a different analyzer suppresses
// nothing here.
func wrongAnalyzer(t *Table) {
	//lint:ignore otheranalyzer fixture: wrong analyzer name
	t.vals = nil // want `mutation of epoch-owned field t.vals`
}
