// Command pcserve serves a loaded dataset over the hardened HTTP/JSON
// layer (internal/server): POST/GET /query with per-request deadlines,
// 503 + Retry-After under overload, /healthz, /readyz and /stats, and a
// graceful SIGTERM/SIGINT drain — readiness flips, the listener stops
// accepting, in-flight queries finish up to the drain deadline, and
// stragglers are cancelled through their run contexts before exit.
//
// Usage:
//
//	pcserve -data data -addr :7433
//	pcserve -gen small            # serve a generated synthetic dataset
//	curl 'localhost:7433/query?q=SELECT+count(*)+FROM+ahn2&timeout_ms=500'
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gisnav/internal/dataset"
	"gisnav/internal/geom"
	"gisnav/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":7433", "listen address")
		dir         = flag.String("data", "", "dataset directory (from lasgen); -gen when empty")
		gen         = flag.String("gen", "small", "generate a synthetic dataset at this scale when -data is empty: small, medium, large")
		maxTimeout  = flag.Duration("max-timeout", 30*time.Second, "server-side clamp on client query timeouts")
		defTimeout  = flag.Duration("default-timeout", 10*time.Second, "query timeout when the client supplies none")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline before in-flight queries are cancelled")
		maxInFlight = flag.Int("max-inflight", 0, "admission-gate bound on concurrent queries (<= 0 selects the default, 2x GOMAXPROCS)")
		parallelism = flag.Int("parallel", 0, "per-query morsel fan-out cap: <= 0 fans large operators out across every core (the default), 1 forces serial execution")
	)
	flag.Parse()

	if err := run(*addr, *dir, *gen, *maxTimeout, *defTimeout, *drain, *maxInFlight, *parallelism); err != nil {
		fmt.Fprintln(os.Stderr, "pcserve:", err)
		os.Exit(1)
	}
}

func run(addr, dir, gen string, maxTimeout, defTimeout, drain time.Duration, maxInFlight, parallelism int) error {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "pcserve-*")
		if err != nil {
			return err
		}
		p, err := genParams(gen)
		if err != nil {
			return err
		}
		info, err := dataset.Generate(tmp, p)
		if err != nil {
			return err
		}
		fmt.Printf("generated %d points into %s\n", info.Points, tmp)
		dir = tmp
	}
	db, st, err := dataset.Load(dir)
	if err != nil {
		return err
	}
	fmt.Printf("loaded %d points from %d tiles in %s\n",
		st.Points, st.Files, st.Total().Round(time.Millisecond))

	srv := server.New(server.Config{
		DB:             db,
		MaxTimeout:     maxTimeout,
		DefaultTimeout: defTimeout,
	})
	srv.Exec().SetMaxInFlight(maxInFlight)
	srv.Exec().SetParallelism(parallelism)
	hs := srv.HTTPServer(addr)

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("serving on %s (max timeout %s, drain %s)\n", addr, maxTimeout, drain)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("received %s: draining (deadline %s)\n", sig, drain)
	}

	// Drain: the listener stops accepting while the query drain flips
	// readiness and rejects late arrivals with 503, in-flight queries
	// finish up to the deadline, and stragglers past it are cancelled
	// through their run contexts. Server.Shutdown guarantees every
	// in-flight request is answered before it returns; the final Close
	// tears down whatever idle connections remain.
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	lnErr := make(chan error, 1)
	go func() { lnErr <- hs.Shutdown(drainCtx) }()
	drainErr := srv.Shutdown(drainCtx)
	if err := <-lnErr; err != nil && err != context.DeadlineExceeded {
		fmt.Fprintln(os.Stderr, "pcserve: listener shutdown:", err)
	}
	hs.Close()
	if drainErr != nil {
		fmt.Println("drain deadline passed: stragglers cancelled")
	} else {
		fmt.Println("drained cleanly")
	}
	return nil
}

// genParams mirrors pcbench's scale presets for the standalone server.
func genParams(scale string) (dataset.Params, error) {
	switch scale {
	case "small":
		return dataset.Params{
			Region: geom.NewEnvelope(0, 0, 1500, 1500),
			TilesX: 3, TilesY: 3, Density: 0.08, UACells: 24, Seed: 2015,
		}, nil
	case "medium":
		return dataset.Params{
			Region: geom.NewEnvelope(0, 0, 3000, 3000),
			TilesX: 4, TilesY: 4, Density: 0.1, UACells: 40, Seed: 2015,
		}, nil
	case "large":
		return dataset.Params{
			Region: geom.NewEnvelope(0, 0, 6000, 6000),
			TilesX: 6, TilesY: 6, Density: 0.15, UACells: 60, Seed: 2015,
		}, nil
	default:
		return dataset.Params{}, fmt.Errorf("unknown scale %q", scale)
	}
}
