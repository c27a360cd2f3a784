package cancel

import (
	"slices"
	"testing"
)

func TestNilToken(t *testing.T) {
	var tok *Token
	if tok.Cancelled() {
		t.Fatal("nil token reports cancelled")
	}
	var zero Token
	if zero.Cancelled() {
		t.Fatal("zero token reports cancelled")
	}
}

func TestTokenFiresAndLatches(t *testing.T) {
	done := make(chan struct{})
	var tok Token
	tok.Reset(done)
	if tok.Cancelled() {
		t.Fatal("unfired token reports cancelled")
	}
	close(done)
	if !tok.Cancelled() {
		t.Fatal("fired token not cancelled")
	}
	// Latched: the cached verdict answers without touching the channel.
	if !tok.Cancelled() {
		t.Fatal("verdict did not latch")
	}
	// Reset rebinds and clears the latch.
	tok.Reset(nil)
	if tok.Cancelled() {
		t.Fatal("reset token still cancelled")
	}
}

func TestCancelledAllocationFree(t *testing.T) {
	done := make(chan struct{})
	var tok Token
	tok.Reset(done)
	if a := testing.AllocsPerRun(100, func() { tok.Cancelled() }); a != 0 {
		t.Fatalf("Cancelled allocates %.1f/op before firing", a)
	}
	sum := 0
	blocks := func() {
		for b0, b1 := range tok.Blocks(0, 10_000, 1024) {
			sum += b1 - b0
		}
	}
	if a := testing.AllocsPerRun(100, blocks); a != 0 {
		t.Fatalf("a range over Blocks allocates %.1f/op before firing", a)
	}
	close(done)
	tok.Cancelled()
	if a := testing.AllocsPerRun(100, func() { tok.Cancelled() }); a != 0 {
		t.Fatalf("Cancelled allocates %.1f/op after firing", a)
	}
	if a := testing.AllocsPerRun(100, blocks); a != 0 {
		t.Fatalf("a range over Blocks allocates %.1f/op after firing", a)
	}
}

// spans collects what a range over tok.Blocks(lo, hi, n) yields.
func spans(tok *Token, lo, hi, n int) [][2]int {
	var out [][2]int
	for b0, b1 := range tok.Blocks(lo, hi, n) {
		out = append(out, [2]int{b0, b1})
	}
	return out
}

// TestBlocksSpans: Blocks cuts [lo, hi) into ⌈(hi−lo)/n⌉ ascending spans
// of n, the last one short, and yields nothing for an empty range — on a
// nil token, an unfired one and a token bound to no channel alike.
func TestBlocksSpans(t *testing.T) {
	var unfired Token
	unfired.Reset(make(chan struct{}))
	for _, tok := range []*Token{nil, new(Token), &unfired} {
		for _, c := range []struct {
			lo, hi, n int
			want      [][2]int
		}{
			{0, 0, 4, nil},
			{7, 7, 4, nil},
			{9, 3, 4, nil},
			{0, 1, 4, [][2]int{{0, 1}}},
			{0, 4, 4, [][2]int{{0, 4}}},
			{0, 9, 4, [][2]int{{0, 4}, {4, 8}, {8, 9}}},
			{5, 13, 4, [][2]int{{5, 9}, {9, 13}}},
			{3, 10, 1, [][2]int{{3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9}, {9, 10}}},
		} {
			if got := spans(tok, c.lo, c.hi, c.n); !slices.Equal(got, c.want) {
				t.Errorf("Blocks(%d, %d, %d) = %v, want %v", c.lo, c.hi, c.n, got, c.want)
			}
		}
	}
}

// TestBlocksStopsAtFiredPoll: a fired token yields nothing, and a token
// that fires inside a span stops the range before the next one.
func TestBlocksStopsAtFiredPoll(t *testing.T) {
	done := make(chan struct{})
	close(done)
	var fired Token
	fired.Reset(done)
	if got := spans(&fired, 0, 100, 10); got != nil {
		t.Fatalf("a fired token yielded %v", got)
	}

	live := make(chan struct{})
	var tok Token
	tok.Reset(live)
	var got [][2]int
	for b0, b1 := range tok.Blocks(0, 100, 10) {
		got = append(got, [2]int{b0, b1})
		if b0 == 30 {
			close(live)
		}
	}
	if want := [][2]int{{0, 10}, {10, 20}, {20, 30}, {30, 40}}; !slices.Equal(got, want) {
		t.Fatalf("token fired in span [30, 40): yielded %v, want %v", got, want)
	}

	// A break ends the range: Blocks stops when yield reports false.
	n := 0
	for range new(Token).Blocks(0, 100, 10) {
		if n++; n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("break after two spans ran %d", n)
	}
}
