package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"time"

	"gisnav/internal/dataset"
	"gisnav/internal/engine"
	"gisnav/internal/geom"
	"gisnav/internal/las"
	"gisnav/internal/pyramid"
	"gisnav/internal/server"
	"gisnav/internal/synth"
)

// benchData is the dataset every workload navigates: pcserve's "medium"
// preset, ~1.07M points over 3000x3000 m in 4x4 tiles. It does not depend
// on -seed: the seed drives what the user does, not what is stored.
var benchData = dataset.Params{
	Region: geom.NewEnvelope(0, 0, 3000, 3000),
	TilesX: 4, TilesY: 4, Density: 0.1, UACells: 40, Seed: 2015,
}

// instance is one loaded dataset hosted the way cmd/pcserve hosts it —
// server.New with its defaults behind HTTPServer on a loopback listener —
// plus the one keep-alive client that navigates it.
type instance struct {
	db   *engine.DB
	pc   *engine.PointCloud
	srv  *server.Server
	hs   *http.Server
	done chan error // what hs.Serve returned
	url  string
	cli  *http.Client
	buf  bytes.Buffer // the last reply; one client, so one buffer
}

func host(db *engine.DB) (*instance, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.New(server.Config{DB: db})
	in := &instance{
		db: db, pc: pointCloud(db), srv: srv,
		hs:   srv.HTTPServer(ln.Addr().String()),
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String() + "/query",
		cli: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
	}
	go func() { in.done <- in.hs.Serve(ln) }()
	return in, nil
}

// close drains the server and waits for its accept loop to end; a second
// call does nothing.
func (in *instance) close() error {
	if in.done == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	in.cli.CloseIdleConnections()
	err := in.hs.Shutdown(ctx)
	if derr := in.srv.Shutdown(ctx); err == nil {
		err = derr
	}
	if serr := <-in.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	in.done = nil
	return err
}

// post sends one statement and reads the whole reply. The returned slice is
// valid until the next post.
func (in *instance) post(body []byte) (status int, reply []byte, err error) {
	resp, err := in.cli.Post(in.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	in.buf.Reset()
	_, err = in.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, in.buf.Bytes(), err
}

// head is a reply without its trailing elapsed_us member: the columns and
// rows, the part that must repeat byte for byte.
func head(body []byte) []byte {
	if i := bytes.LastIndex(body, []byte(`,"elapsed_us":`)); i >= 0 {
		return body[:i]
	}
	return body
}

// setupTimes is one measurement of set-up: dataset.Load, then hosting and
// the first answer of every statement shape (imprint build, pyramid build,
// cold prepare). Script generation between the two is not counted.
type setupTimes struct {
	SetupS  float64   `json:"setup_s"`
	LoadS   float64   `json:"load_s"`
	FirstMs []float64 `json:"first_ms"`
}

// setUp loads the dataset at dir, builds w's script, hosts the table and
// gets one answer per statement shape. The answers are returned unchecked
// (session.first[i] is the reply to script[firstOf[i]]); verify holds them
// against the oracle outside the timed path.
func setUp(dir string, w *workload, region geom.Envelope, seed uint64) (*session, *instance, setupTimes, error) {
	var st setupTimes
	pyramid0 := pyramid.Snapshot()
	t0 := time.Now()
	db, _, err := dataset.Load(dir)
	if err != nil {
		return nil, nil, st, err
	}
	load := time.Since(t0)

	s := &session{script: w.script(seed, region, pointCloud(db)), hseed: maphash.MakeSeed(), pyramid0: pyramid0}

	t1 := time.Now()
	in, err := host(db)
	if err != nil {
		return nil, nil, st, err
	}
	seen := map[shape]bool{}
	for i := range s.script {
		sh := s.script[i].shape
		if seen[sh] {
			continue
		}
		seen[sh] = true
		tq := time.Now()
		status, body, err := in.post(s.script[i].body)
		if err != nil || status != http.StatusOK {
			in.close()
			return nil, nil, st, fmt.Errorf("first %q: status %d, %v", s.script[i].sql, status, err)
		}
		st.FirstMs = append(st.FirstMs, ms(time.Since(tq)))
		s.firstOf = append(s.firstOf, i)
		s.first = append(s.first, bytes.Clone(body))
	}
	st.LoadS = load.Seconds()
	st.SetupS = (load + time.Since(t1)).Seconds()
	return s, in, st, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// session is one workload's script with what checking it needs; the
// instance it is driven against is passed to each call.
type session struct {
	script []step
	orc    *oracle

	firstOf []int    // script indices setUp answered
	first   [][]byte // their replies

	// heads[i] hashes the oracle-verified reply head of script[i]; every
	// timed reply is compared to it. A hash, not the bytes: 960 recorded
	// pan.fetch replies would add ~100 MB to the heap being measured.
	hseed maphash.Seed
	heads []uint64

	failed   int
	failures []string // the first few, for the report

	pyramid0 pyramid.Stats // the process-wide pyramid counters when the run began
}

func (s *session) fail(format string, args ...any) {
	s.failed++
	if len(s.failures) < 5 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// verify is the warm-up: it checks the set-up answers, then sends every
// script step once, holds the reply against the brute-force oracle and
// records its head. It returns the number of steps it attempted.
func (s *session) verify(in *instance) int {
	n := in.pc.Len()
	for k, i := range s.firstOf {
		if err := checkReply(s.first[k], s.orc.answer(&s.script[i], n)); err != nil {
			s.fail("set-up answer of step %d: %v", i, err)
		}
	}
	s.first = nil
	s.heads = make([]uint64, len(s.script))
	for i := range s.script {
		st := &s.script[i]
		want := s.orc.answer(st, n)
		status, body, err := in.post(st.body)
		switch {
		case err != nil || status != http.StatusOK:
			s.fail("warm-up step %d: status %d, %v", i, status, err)
		default:
			if err := checkReply(body, want); err != nil {
				s.fail("warm-up step %d %q: %v", i, st.sql, err)
			}
			s.heads[i] = maphash.Bytes(s.hseed, head(body))
		}
	}
	return len(s.firstOf) + len(s.script)
}

// appendPlan schedules pan.append's writes: on the wall clock in the timed
// run (so two commits append the same amount whatever their speed), on the
// step count in the traced run (so its counts repeat).
type appendPlan struct {
	batches    [][]las.Point
	every      time.Duration
	everySteps int
}

const (
	appendPoints = 2500
	appendEvery  = 500 * time.Millisecond
	recheckEvery = 50 // 1-in-50 steps re-checked against the oracle once data moves
)

// appendBatches generates n batches of appendPoints synthetic returns over
// seeded patches of the dataset's own terrain.
func appendBatches(data dataset.Params, seed uint64, n int) [][]las.Point {
	terrain := synth.NewTerrain(data.Seed, data.Region)
	rng := rand.New(rand.NewPCG(seed, 0x617070)) // stream "app"
	const side = 180                             // metres; 3249 first returns at density 0.1
	out := make([][]las.Point, n)
	for k := range out {
		x := data.Region.MinX + rng.Float64()*(data.Region.Width()-side)
		y := data.Region.MinY + rng.Float64()*(data.Region.Height()-side)
		pts := synth.GenerateTile(terrain, synth.TileSpec{
			Env: geom.NewEnvelope(x, y, x+side, y+side), Density: data.Density,
			Seed: rng.Uint64(), SourceID: uint16(1000 + k),
		})
		out[k] = pts[:min(appendPoints, len(pts))]
	}
	return out
}

// recheck is a reply kept for checking after the loop: once appends move
// the data the recorded heads no longer apply, so a sample of steps is held
// against the oracle over the rows the table had when the step ran.
type recheck struct {
	step, rows int
	body       []byte
}

// driven is what one closed loop over the script measured.
type driven struct {
	startNs []int64   // per step, since the loop began
	latMs   []float64 // per step round trip, in step order
	elapsed time.Duration
	bytes   int64 // reply bytes read, less the elapsed_us tails (their digits vary)

	// pan.append: one "append" span per AppendLAS call and one "refresh"
	// span per append whose cost is the append plus the first bbox and hist
	// step after it (the steps that rebuild); times since the loop began.
	appends int
	writes  []span
}

// drive runs the closed loop: one client, next step sent when the last
// reply has been read and checked. stop is asked before each step.
func (s *session) drive(in *instance, stop func(steps int, elapsed time.Duration) bool, ap *appendPlan) driven {
	var (
		r       driven
		pending []recheck
		refresh time.Duration  // cost of the last append so far
		stale   map[shape]bool // shapes whose first step after it is still to come
	)
	begin := time.Now()
	endRefresh := func() {
		start := r.writes[len(r.writes)-1].StartNs
		r.writes = append(r.writes, span{Name: spanRefresh, Step: r.appends - 1, StartNs: start, EndNs: start + refresh.Nanoseconds()})
	}
	for i := 0; ; i++ {
		r.elapsed = time.Since(begin)
		if stop(i, r.elapsed) {
			break
		}
		if ap != nil && r.appends < len(ap.batches) &&
			(ap.every > 0 && r.elapsed >= time.Duration(r.appends+1)*ap.every ||
				ap.everySteps > 0 && i > 0 && i%ap.everySteps == 0) {
			if len(stale) > 0 { // the previous append never met both shapes again
				endRefresh()
			}
			t := time.Now()
			in.pc.AppendLAS(ap.batches[r.appends])
			refresh = time.Since(t)
			r.writes = append(r.writes, span{Name: spanAppend, Step: r.appends, Parent: spanRefresh,
				StartNs: t.Sub(begin).Nanoseconds(), EndNs: (t.Sub(begin) + refresh).Nanoseconds()})
			r.appends++
			stale = map[shape]bool{shapeBBox: true, shapeHist: true}
			s.checkCount(in)
		}
		idx := i % len(s.script)
		st := &s.script[idx]
		t0 := time.Now()
		status, body, err := in.post(st.body)
		answer := head(body)
		switch {
		case err != nil || status != http.StatusOK:
			s.fail("step %d: status %d, %v", i, status, err)
		case r.appends == 0:
			if maphash.Bytes(s.hseed, answer) != s.heads[idx] {
				s.fail("step %d %q: reply differs from the verified one: %.200s", i, st.sql, body)
			}
		case i%recheckEvery == 0:
			pending = append(pending, recheck{step: idx, rows: in.pc.Len(), body: bytes.Clone(body)})
		}
		d := time.Since(t0)
		r.startNs = append(r.startNs, t0.Sub(begin).Nanoseconds())
		r.latMs = append(r.latMs, ms(d))
		r.bytes += int64(len(answer))
		if stale[st.shape] {
			delete(stale, st.shape)
			refresh += d
			if len(stale) == 0 {
				endRefresh()
			}
		}
	}
	if len(pending) > 0 {
		s.orc.snapshot(in.pc) // the columns moved
		for _, p := range pending {
			if err := checkReply(p.body, s.orc.answer(&s.script[p.step], p.rows)); err != nil {
				s.fail("re-check of %q over %d rows: %v", s.script[p.step].sql, p.rows, err)
			}
		}
	}
	return r
}

var countBody = []byte(`{"sql":"SELECT count(*) FROM ahn2"}`)

// checkCount asks the server how many rows it sees right after an append;
// anything but the table's length means a plan survived the epoch bump.
func (s *session) checkCount(in *instance) {
	status, body, err := in.post(countBody)
	if err != nil || status != http.StatusOK {
		s.fail("count after append: status %d, %v", status, err)
		return
	}
	if err := checkReply(body, [][]any{{float64(in.pc.Len())}}); err != nil {
		s.fail("count after append: %v", err)
	}
}

// poolsOutstanding sums the pooled buffers currently drawn and not returned.
// A resident pyramid owns its banks, so the figure is not zero at rest; what
// must hold is that a closed workload ends where it began.
func poolsOutstanding() int64 {
	return engine.SelectionPoolStats().Outstanding + engine.RangePoolStats().Outstanding + engine.F64PoolStats().Outstanding
}

// accounting checks the invariants that must hold when a run ends: every
// request accounted for exactly once, and no more pooled buffers drawn than
// poolsBefore, the count when the run began.
func (s *session) accounting(in *instance, poolsBefore int64) {
	st := in.srv.Stats()
	var errs uint64
	for _, n := range st.Errors {
		errs += n
	}
	if st.Requests != st.QueriesOK+errs {
		s.fail("server accounting: %d requests != %d ok + %d errors", st.Requests, st.QueriesOK, errs)
	}
	if errs > 0 {
		s.fail("server counted %d failed requests: %v", errs, st.Errors)
	}
	if drift := poolsOutstanding() - poolsBefore; drift != 0 {
		s.fail("pools: %d more buffers outstanding than when the run began", drift)
	}
}

// generate writes the benchmark dataset under dir and times it.
func generate(dir string, p dataset.Params) (time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	t := time.Now()
	_, err := dataset.Generate(dir, p)
	return time.Since(t), err
}
