// Command pcload bulk-loads a generated tile directory into the column
// store and reports loading throughput and storage, comparing the paper's
// binary COPY path against the conventional CSV route (§3.2).
//
// Usage:
//
//	pcload -data data [-loader binary|csv|both] [-imprints]
package main

import (
	"flag"
	"fmt"
	"os"

	"gisnav/internal/bench"
	"gisnav/internal/dataset"
	"gisnav/internal/engine"
)

func main() {
	var (
		dir      = flag.String("data", "data", "dataset directory (from lasgen)")
		loader   = flag.String("loader", "binary", "loading path: binary, csv or both")
		imprints = flag.Bool("imprints", true, "build coordinate imprints after loading")
		saveDir  = flag.String("save", "", "persist the loaded table to this directory")
	)
	flag.Parse()

	repo, err := dataset.Repo(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcload:", err)
		os.Exit(1)
	}
	if len(repo.Files()) == 0 {
		fmt.Fprintln(os.Stderr, "pcload: no tiles found; run lasgen first")
		os.Exit(1)
	}

	runs := []string{*loader}
	if *loader == "both" {
		runs = []string{"binary", "csv"}
	}
	tbl := bench.NewTable("bulk load ("+fmt.Sprint(len(repo.Files()))+" tiles)",
		"loader", "points", "convert", "append", "total", "throughput", "staging")
	var lastPC *engine.PointCloud
	for _, mode := range runs {
		pc := engine.NewPointCloud()
		var st engine.LoadStats
		var err error
		switch mode {
		case "binary":
			st, err = engine.LoadBinary(pc, repo)
		case "csv":
			st, err = engine.LoadCSV(pc, repo)
		default:
			fmt.Fprintf(os.Stderr, "pcload: unknown loader %q\n", mode)
			os.Exit(1)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "pcload:", err)
			os.Exit(1)
		}
		tbl.AddRow(mode, st.Points, st.ConvertTime, st.AppendTime, st.Total(),
			bench.Throughput(st.Points, st.Total()), bench.HumanBytes(st.StageBytes))
		lastPC = pc
	}
	tbl.WriteTo(os.Stdout)
	fmt.Println("binary: convert = header pass + tile decode into the reserved rows, append = reserve + publish lengths")
	fmt.Println("csv:    convert = tile decode + CSV rendering, append = CSV parsing into the table")

	if *imprints && lastPC != nil {
		d := lastPC.EnsureImprints()
		sx, sy := lastPC.ImprintStats()
		fmt.Printf("\nimprints built in %s\n", d)
		fmt.Printf("  x: %d lines, %d vectors, %.1fx compression, %.2f%% overhead\n",
			sx.Lines, sx.Vectors, sx.CompressionRatio, sx.OverheadPercent)
		fmt.Printf("  y: %d lines, %d vectors, %.1fx compression, %.2f%% overhead\n",
			sy.Lines, sy.Vectors, sy.CompressionRatio, sy.OverheadPercent)
		fmt.Printf("  flat table: %s, imprints: %s\n",
			bench.HumanBytes(int64(lastPC.Bytes())), bench.HumanBytes(int64(lastPC.IndexBytes())))
	}

	if *saveDir != "" && lastPC != nil {
		if err := lastPC.Save(*saveDir); err != nil {
			fmt.Fprintln(os.Stderr, "pcload: save:", err)
			os.Exit(1)
		}
		// Re-open to prove the round trip.
		reopened, err := engine.OpenPointCloud(*saveDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pcload: reopen:", err)
			os.Exit(1)
		}
		fmt.Printf("\npersisted %d rows to %s and verified reopen\n", reopened.Len(), *saveDir)
	}
}
