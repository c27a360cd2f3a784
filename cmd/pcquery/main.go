// Command pcquery loads a generated dataset and executes SQL against it,
// either one-shot (-q) or as a small REPL on stdin. With -explain every
// query also prints its per-operator execution trace — the view the demo
// exposes in its second scenario (§4.2).
//
// Usage:
//
//	pcquery -data data -q "SELECT count(*) FROM ahn2 WHERE classification = 9"
//	pcquery -data data -explain              # REPL
//	pcquery -data data -timeout 50ms -q "..."  # deadline through QueryContext
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gisnav/internal/bench"
	"gisnav/internal/dataset"
	"gisnav/internal/server"
	"gisnav/internal/sql"
)

func main() {
	var (
		dir      = flag.String("data", "data", "dataset directory (from lasgen)")
		query    = flag.String("q", "", "one-shot query; REPL when empty")
		explain  = flag.Bool("explain", false, "print per-operator execution traces")
		maxRows  = flag.Int("maxrows", 20, "result rows to display")
		timeout  = flag.Duration("timeout", 0, "per-query deadline, wired through QueryContext (0 = none)")
		parallel = flag.Int("parallel", 0, "per-query morsel fan-out cap: <= 0 fans large operators out across every core (the default), 1 forces serial execution")
	)
	flag.Parse()

	db, st, err := dataset.Load(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcquery:", err)
		os.Exit(1)
	}
	fmt.Printf("loaded %d points from %d tiles in %s (%s)\n",
		st.Points, st.Files, st.Total().Round(time.Millisecond),
		bench.Throughput(st.Points, st.Total()))
	fmt.Printf("tables: %s\n", strings.Join(db.Tables(), ", "))

	exec := sql.New(db)
	exec.SetParallelism(*parallel)
	if *query != "" {
		if err := runOne(exec, *query, *explain, *maxRows, *timeout); err != nil {
			fmt.Fprintln(os.Stderr, "pcquery:", describeErr(err))
			os.Exit(1)
		}
		return
	}

	fmt.Println(`enter SQL (empty line or "quit" to exit):`)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("sql> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.EqualFold(line, "quit") || strings.EqualFold(line, "exit") {
			return
		}
		if err := runOne(exec, line, *explain, *maxRows, *timeout); err != nil {
			fmt.Println("error:", describeErr(err))
		}
	}
}

// describeErr appends the serving layer's stable taxonomy code, so scripts
// driving pcquery can branch on [deadline] / [overloaded] / ... the same
// way HTTP clients branch on the JSON error code.
func describeErr(err error) string {
	return fmt.Sprintf("%v [%s]", err, server.Code(err))
}

func runOne(exec *sql.Executor, q string, explain bool, maxRows int, timeout time.Duration) error {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	start := time.Now()
	res, err := exec.QueryContext(ctx, q)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	tbl := bench.NewTable("", res.Columns...)
	shown := max(0, min(res.Len(), maxRows))
	for i := 0; i < shown; i++ {
		cells := make([]any, len(res.Cols))
		for j := range res.Cols {
			cells[j] = res.Cols[j].Value(i).String()
		}
		tbl.AddRow(cells...)
	}
	tbl.WriteTo(os.Stdout)
	if res.Len() > shown {
		fmt.Printf("... %d more rows\n", res.Len()-shown)
	}
	fmt.Printf("%d row(s) in %s\n", res.Len(), elapsed.Round(time.Microsecond))
	if explain {
		fmt.Println("\nplan:")
		fmt.Print(res.Explain.String())
	}
	return nil
}
