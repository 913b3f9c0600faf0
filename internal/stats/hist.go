package stats

import "math/bits"

// histBuckets is the fixed bucket count of a Histogram: bucket 0 holds
// non-positive samples; bucket k (1..63) holds samples v with
// 2^(k-1) <= v < 2^k, i.e. bits.Len64(v) == k. Every int64 sample maps to
// exactly one bucket, so there is no separate overflow bucket.
const histBuckets = 64

// Histogram is a fixed-bucket log2 latency histogram. The zero value is
// ready to use. With fixed buckets, Add never allocates, and quantiles are
// deterministic: they depend only on the multiset of samples, never on
// insertion order or any host property.
type Histogram struct {
	Counts [histBuckets]int64
	N      int64
	Sum    int64
	Max    int64
	Min    int64 // valid when N > 0
}

// HistBucket returns the bucket index for a sample.
func HistBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// HistBucketHigh returns the largest sample value bucket i can hold (its
// inclusive upper edge).
func HistBucketHigh(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return 1<<63 - 1
	}
	return 1<<i - 1
}

// Add records one sample.
func (h *Histogram) Add(v int64) {
	if h.N == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.N++
	h.Sum += v
	h.Counts[HistBucket(v)]++
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1): the
// inclusive upper edge of the bucket containing the ceil(q*N)-th smallest
// sample, clamped to the observed maximum so p100 (and any quantile landing
// in the top bucket) reports the true max rather than a bucket edge.
func (h *Histogram) Quantile(q float64) int64 {
	if h.N == 0 {
		return 0
	}
	rank := int64(q * float64(h.N))
	if float64(rank) < q*float64(h.N) {
		rank++ // ceil
	}
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.Counts {
		cum += h.Counts[i]
		if cum >= rank {
			return min(HistBucketHigh(i), h.Max)
		}
	}
	return h.Max
}

// Mean returns the arithmetic mean of the samples (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}
