package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"gisnav/internal/geom"
	"gisnav/internal/synth"
)

// TestDrainRaceEpochBumps is the -race workhorse for the serving layer:
// client goroutines hammer /query while another goroutine bumps the table
// epoch (the append-path signal, safe against concurrent readers) and a
// drain starts mid-flight. Every request must be answered with a taxonomy
// status, the pools must be level afterwards, and a real append once the
// server has quiesced must be visible to the executor's next query — no
// stale plan survives the churn.
func TestDrainRaceEpochBumps(t *testing.T) {
	srv, pc := newTestServer(t, Config{DefaultTimeout: 2 * time.Second})
	h := srv.Handler()
	before := poolOutstanding()

	stop := make(chan struct{})
	var clients, bumper sync.WaitGroup

	bumper.Add(1)
	go func() {
		defer bumper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			pc.InvalidateIndexes()
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const runners = 6
	for r := 0; r < runners; r++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch code := doQuery(h, testQuery).Code; code {
				case http.StatusOK, http.StatusServiceUnavailable,
					http.StatusGatewayTimeout, StatusClientClosed:
				default:
					t.Errorf("unexpected status %d", code)
				}
			}
		}()
	}

	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	close(stop)
	clients.Wait()
	bumper.Wait()

	if drift := poolOutstanding() - before; drift != 0 {
		t.Fatalf("pool drift across racing drain: %d buffers outstanding", drift)
	}

	// Quiesced now (drain complete, writers joined): a real append must be
	// observed by the executor's very next run.
	rows := pc.Len()
	region := geom.NewEnvelope(0, 0, 2000, 2000)
	terrain := synth.NewTerrain(81, region)
	pc.AppendLAS(synth.GenerateTile(terrain, synth.TileSpec{Env: region, Density: 0.001, Seed: 12}))
	if pc.Len() == rows {
		t.Fatal("append added no rows; the staleness check is vacuous")
	}
	res, err := srv.Exec().QueryContext(context.Background(), `SELECT count(*) FROM ahn2`)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(res.Rows()[0][0].Num); got != pc.Len() {
		t.Fatalf("post-append count(*) = %d, table has %d rows (stale plan?)", got, pc.Len())
	}

	// The drained server still reports stats coherently.
	rec := doQuery(h, testQuery)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain query = %d, want 503", rec.Code)
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != CodeOverloaded {
		t.Fatalf("post-drain code = %q", er.Error.Code)
	}
}
