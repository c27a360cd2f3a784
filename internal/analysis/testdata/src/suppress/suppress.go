// Test fixture for //lint:ignore: a directive silences exactly one
// diagnostic of the named analyzer on its target line — no more, no
// blanket, and only when the analyzer name matches. Exercised with the
// releaselist analyzer.
package suppress

// Run mirrors engine.Run.
type Run struct{}

func (r *Run) TrackRows(buf []int) []int { return buf }

func getRowBuf(n int) []int { return make([]int, 0, n) }

// standalone: a directive on its own line suppresses the next line only.
func standalone(run *Run) {
	//lint:ignore releaselist fixture: deliberately untracked to test suppression
	a := getRowBuf(1)
	b := getRowBuf(2) // want `pooled acquisition getRowBuf\(...\) is not registered`
	_, _ = a, b
}

// trailing: a trailing directive suppresses its own line.
func trailing(run *Run) {
	a := getRowBuf(3) //lint:ignore releaselist fixture: trailing form
	b := getRowBuf(4) // want `pooled acquisition getRowBuf\(...\) is not registered`
	_, _ = a, b
}

// exactlyOne: two violations share a line; one directive silences only one
// of them.
func exactlyOne(run *Run) {
	//lint:ignore releaselist fixture: suppresses one of the two on this line
	a, b := getRowBuf(5), getRowBuf(6) // want `pooled acquisition getRowBuf\(...\) is not registered`
	_, _ = a, b
}

// wrongAnalyzer: a directive naming a different analyzer suppresses
// nothing here.
func wrongAnalyzer(run *Run) {
	//lint:ignore epochguard fixture: wrong analyzer name
	a := getRowBuf(7) // want `pooled acquisition getRowBuf\(...\) is not registered`
	_ = a
}
