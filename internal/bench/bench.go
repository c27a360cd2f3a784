// Package bench provides the small experiment-harness utilities shared by
// cmd/pcbench, the other command-line tools and the examples: wall-clock
// measurement and aligned result tables.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Measure runs fn and returns its wall-clock duration.
func Measure(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// MeasureN runs fn n times and returns the mean duration.
func MeasureN(n int, fn func()) time.Duration {
	if n < 1 {
		n = 1
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(n)
}

// Throughput formats an items/second figure.
func Throughput(items int, d time.Duration) string {
	if d <= 0 {
		return "inf"
	}
	rate := float64(items) / d.Seconds()
	switch {
	case rate >= 1e6:
		return fmt.Sprintf("%.2f M/s", rate/1e6)
	case rate >= 1e3:
		return fmt.Sprintf("%.1f K/s", rate/1e3)
	default:
		return fmt.Sprintf("%.0f /s", rate)
	}
}

// HumanBytes formats a byte count.
func HumanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; values are stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows reports the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString("== " + t.Title + " ==\n")
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		sb.WriteString("\n")
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.WriteTo(&sb) //nolint:errcheck // strings.Builder cannot fail
	return sb.String()
}
