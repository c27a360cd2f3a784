package colstore

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// CSV codec. This is the loading path the paper's binary loader replaces:
// values are rendered to text, written out, re-tokenised and re-parsed. It
// exists as the baseline for the load experiment (E1); the binary path in
// WriteBinary/AppendBinary is the paper's contribution.

// WriteCSV renders the table (parallel columns) as comma-separated rows.
func WriteCSV(w io.Writer, cols []Column) error {
	if len(cols) == 0 {
		return nil
	}
	n := cols[0].Len()
	for _, c := range cols[1:] {
		if c.Len() != n {
			return fmt.Errorf("colstore: ragged table: %d vs %d rows", c.Len(), n)
		}
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	var line []byte
	for row := 0; row < n; row++ {
		line = line[:0]
		for i, c := range cols {
			if i > 0 {
				line = append(line, ',')
			}
			line = c.format(line, row)
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// AppendCSV parses comma-separated rows from r and appends them to the
// columns.
func AppendCSV(r io.Reader, cols []Column) (rows int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != len(cols) {
			return rows, fmt.Errorf("colstore: row %d has %d fields, want %d", rows, len(fields), len(cols))
		}
		for i, f := range fields {
			if err := cols[i].AppendText(f); err != nil {
				return rows, fmt.Errorf("colstore: row %d field %d: %w", rows, i, err)
			}
		}
		rows++
	}
	return rows, sc.Err()
}
