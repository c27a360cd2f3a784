package bench

import (
	"strings"
	"testing"
	"time"
)

func TestMeasure(t *testing.T) {
	d := Measure(func() { time.Sleep(time.Millisecond) })
	if d < time.Millisecond {
		t.Fatalf("measured %v, want >= 1ms", d)
	}
	n := 0
	d = MeasureN(5, func() { n++ })
	if n != 5 || d < 0 {
		t.Fatalf("MeasureN ran %d times", n)
	}
	MeasureN(0, func() { n++ }) // clamps to 1
	if n != 6 {
		t.Fatal("MeasureN(0) should run once")
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(2_000_000, time.Second); got != "2.00 M/s" {
		t.Fatalf("throughput = %q", got)
	}
	if got := Throughput(5000, time.Second); got != "5.0 K/s" {
		t.Fatalf("throughput = %q", got)
	}
	if got := Throughput(5, time.Second); got != "5 /s" {
		t.Fatalf("throughput = %q", got)
	}
	if got := Throughput(5, 0); got != "inf" {
		t.Fatalf("throughput = %q", got)
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int64]string{
		100:     "100 B",
		2048:    "2.0 KiB",
		3 << 20: "3.00 MiB",
		5 << 30: "5.00 GiB",
	}
	for n, want := range cases {
		if got := HumanBytes(n); got != want {
			t.Errorf("HumanBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("a-much-longer-name", time.Millisecond*1500)
	if len(tb.rows) != 2 {
		t.Fatalf("rows = %d", len(tb.rows))
	}
	s := tb.String()
	if !strings.Contains(s, "== demo ==") {
		t.Fatal("title missing")
	}
	if !strings.Contains(s, "alpha") || !strings.Contains(s, "1.500") {
		t.Fatalf("rows missing:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	// Title + header + separator + 2 rows.
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), s)
	}
	// Columns align: header and separator have same width.
	if len(lines[1]) != len(lines[2]) {
		t.Fatal("separator width mismatch")
	}
}
