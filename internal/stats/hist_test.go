package stats

import (
	"math"
	"strings"
	"testing"
)

func TestHistBucketEdges(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{math.MinInt64, 0},
		{-1, 0},
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{1023, 10},
		{1024, 11},
		{1 << 62, 63},
		{math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := HistBucket(c.v); got != c.want {
			t.Errorf("HistBucket(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Each bucket's upper edge must map back into that bucket, and the
	// next value into the next one (pow2 boundary consistency).
	for i := 1; i < 63; i++ {
		hi := HistBucketHigh(i)
		if got := HistBucket(hi); got != i {
			t.Errorf("HistBucket(HistBucketHigh(%d)=%d) = %d", i, hi, got)
		}
		if got := HistBucket(hi + 1); got != i+1 {
			t.Errorf("HistBucket(%d) = %d, want %d", hi+1, got, i+1)
		}
	}
	if HistBucketHigh(0) != 0 {
		t.Errorf("HistBucketHigh(0) = %d, want 0", HistBucketHigh(0))
	}
	if HistBucketHigh(63) != math.MaxInt64 {
		t.Errorf("HistBucketHigh(63) = %d, want MaxInt64", HistBucketHigh(63))
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Error("empty histogram must report zeros")
	}
	// 100 samples 1..100: buckets are coarse, so quantiles are bucket
	// upper edges: p50 -> sample 50 lives in bucket 6 (32..63) -> 63.
	for v := int64(1); v <= 100; v++ {
		h.Add(v)
	}
	if h.N != 100 || h.Sum != 5050 || h.Min != 1 || h.Max != 100 {
		t.Fatalf("counts: N=%d Sum=%d Min=%d Max=%d", h.N, h.Sum, h.Min, h.Max)
	}
	if got := h.Quantile(0.5); got != 63 {
		t.Errorf("p50 = %d, want 63 (upper edge of [32,64))", got)
	}
	// p99 and p100 land in the top occupied bucket [64,128); the edge 127
	// exceeds the observed max, so both clamp to 100.
	if got := h.Quantile(0.99); got != 100 {
		t.Errorf("p99 = %d, want 100 (clamped to max)", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("p100 = %d, want 100", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("p0 = %d, want 1 (first sample's bucket edge is 1)", got)
	}
	if got := h.Mean(); got != 50.5 {
		t.Errorf("mean = %v, want 50.5", got)
	}
}

func TestHistogramMaxOverflow(t *testing.T) {
	var h Histogram
	h.Add(math.MaxInt64)
	h.Add(math.MaxInt64)
	if h.Counts[63] != 2 {
		t.Fatalf("top bucket count = %d, want 2", h.Counts[63])
	}
	if got := h.Quantile(0.5); got != math.MaxInt64 {
		t.Errorf("p50 = %d, want MaxInt64", got)
	}
	// Sum wraps with two MaxInt64 samples; the histogram still answers
	// quantiles from counts, which is what reports use.
	if got := h.Quantile(1); got != math.MaxInt64 {
		t.Errorf("p100 = %d, want MaxInt64", got)
	}
}

func TestChartFprintEmpty(t *testing.T) {
	var sb strings.Builder
	(&Chart{Title: "empty"}).Fprint(&sb)
	if sb.Len() != 0 {
		t.Errorf("empty chart rendered %q, want nothing", sb.String())
	}
	sb.Reset()
	// X axis but no series — still nothing to plot.
	(&Chart{Title: "no series", X: []string{"a", "b"}}).Fprint(&sb)
	if sb.Len() != 0 {
		t.Errorf("series-less chart rendered %q, want nothing", sb.String())
	}
}

func TestChartFprintSinglePoint(t *testing.T) {
	c := &Chart{
		Title:  "one point",
		YLabel: "MB/s",
		X:      []string{"4KB"},
		Series: []Series{{Name: "dafs", Y: []float64{42}}},
	}
	out := c.String()
	if !strings.Contains(out, "one point") {
		t.Errorf("missing title in %q", out)
	}
	// The single sample is the maximum: it must plot on the top row with
	// the first series mark.
	lines := strings.Split(out, "\n")
	if len(lines) < 3 || !strings.Contains(lines[1], "o") {
		t.Errorf("single point not plotted on top row:\n%s", out)
	}
	if !strings.Contains(lines[1], "42") {
		t.Errorf("y-axis max label missing:\n%s", out)
	}
	if !strings.Contains(out, "o=dafs") || !strings.Contains(out, "MB/s") {
		t.Errorf("legend missing:\n%s", out)
	}
	// A series longer than the x axis must not panic or plot past it.
	c.Series[0].Y = []float64{42, 7}
	if !strings.Contains(c.String(), "one point") {
		t.Error("over-long series render failed")
	}
}

func TestChartFromTableTooShort(t *testing.T) {
	tbl := &Table{ID: "X", Columns: []string{"n", "v"}}
	tbl.AddRow("1", "2.0")
	if ChartFromTable(tbl) != nil {
		t.Error("single-row table should not chart")
	}
}
