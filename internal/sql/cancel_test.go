package sql

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"gisnav/internal/cancel"
)

// poison divides by zero on every row, in the interpreter and in compiled
// nodes alike.
const poison = "z / (classification - classification)"

// TestLoopsStopOnFiredToken runs each row loop of the executor under a
// run whose token has already fired, over a statement that fails on the
// first row it evaluates. A loop that polls before its first block returns
// cancel.ErrCancelled having evaluated nothing; a loop that does not poll
// reaches a row and reports the division instead. Under a live run the
// same call must fail on the division, which shows the poison is on the
// loop's path. The refinement of a non-finite region has no row to
// poison: there the fired run must select no row where the live run
// selects some. Pool Outstanding must come back to where it was on both
// runs.
func TestLoopsStopOnFiredToken(t *testing.T) {
	e, _, _, _ := testDB(t)
	output := func(t *testing.T, pq *PreparedQuery, rs *runState, bd *bound, rows []int) error {
		_, err := pq.output(rs, bd, rows, nil, nil)
		return err
	}
	generic := func(t *testing.T, bd *bound, compiled bool) genericStep {
		if len(bd.plan.generic) != 1 || (bd.plan.generic[0].cf != nil) != compiled {
			t.Fatalf("plan has %d generic conjuncts; want one, compiled %v", len(bd.plan.generic), compiled)
		}
		return bd.plan.generic[0]
	}
	cases := []struct {
		name, q, live string
		loop          func(t *testing.T, pq *PreparedQuery, rs *runState, bd *bound, rows []int) error
	}{
		{"filterInterpreted", "SELECT count(*) FROM ahn2 WHERE st_x(st_point(" + poison + ", y)) > 0", "division by zero",
			func(t *testing.T, pq *PreparedQuery, rs *runState, bd *bound, rows []int) error {
				_, err := filterInterpreted(&rs.Run, bd, false, generic(t, bd, false).expr, rows, nil)
				return err
			}},
		{"compiledFilter.apply", "SELECT count(*) FROM ahn2 WHERE " + poison + " > 0", "division by zero",
			func(t *testing.T, pq *PreparedQuery, rs *runState, bd *bound, rows []int) error {
				_, err := generic(t, bd, true).cf.apply(rs.Token(), &rs.frame, &bd.slots, rows)
				return err
			}},
		{"order by keys", "SELECT x FROM ahn2 ORDER BY " + poison, "division by zero",
			output},
		{"projection", "SELECT x, st_x(st_point(" + poison + ", y)) FROM ahn2", "division by zero",
			output},
		{"computeAggregate", "SELECT sum(" + poison + ") FROM ahn2", "division by zero",
			output},
		{"interpretGrouped", "SELECT count(*) FROM ahn2 GROUP BY " + poison, "division by zero",
			output},
		{"non-finite refine", "SELECT count(*) FROM ahn2 WHERE ST_Contains(ST_MakeEnvelope(-1e308 * 10, 0, 2000, 2000), ST_Point(x, y))", "selected",
			func(t *testing.T, pq *PreparedQuery, rs *runState, bd *bound, rows []int) error {
				if bd.region == nil || !math.IsInf(bd.region.Envelope().MinX, -1) {
					t.Fatal("the statement binds no non-finite region")
				}
				if sel := bd.plan.b.pc.SelectRegionRowsRun(&rs.Run, bd.region, -1, nil); len(sel) > 0 {
					return fmt.Errorf("selected %d rows", len(sel))
				}
				if rs.Cancelled() {
					return cancel.ErrCancelled
				}
				return nil
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pq, err := e.Prepare(c.q)
			if err != nil {
				t.Fatal(err)
			}
			bd := pq.last.Load()
			for _, fired := range []bool{false, true} {
				var err error
				delta := outstandingDelta(t, func() {
					done := make(chan struct{})
					if fired {
						close(done)
					}
					rs := getRunState()
					rs.Bind(done)
					rs.fit(bd.plan.nums, bd.plan.keeps)
					err = c.loop(t, pq, rs, bd, allRows(&rs.Run, bd.plan.b.pc.Len()))
					rs.Drain()
					rs.Bind(nil)
					putRunState(rs)
				})
				switch {
				case fired && !errors.Is(err, cancel.ErrCancelled):
					t.Errorf("fired token: err = %v, want %v", err, cancel.ErrCancelled)
				case !fired && (err == nil || !strings.Contains(err.Error(), c.live)):
					t.Errorf("live token: err = %v, want one naming %q", err, c.live)
				}
				if delta != 0 {
					t.Errorf("fired %v: pool drifted by %d", fired, delta)
				}
			}
		})
	}
}
