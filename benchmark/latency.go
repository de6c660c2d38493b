package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie strictly above a reported tail
// percentile. A p99 over 300 samples rests on 3 values and moves with
// every scheduler hiccup; the recorder reports the deepest percentile
// that still has this many samples beyond it instead.
const minBeyond = 10

// Recorder collects exact per-operation latencies. It is not safe for
// concurrent use: give each client loop its own and Merge them.
type Recorder struct {
	ns []int64
}

// Add records one sample.
func (r *Recorder) Add(d time.Duration) { r.ns = append(r.ns, int64(d)) }

// Merge appends every sample of o.
func (r *Recorder) Merge(o *Recorder) { r.ns = append(r.ns, o.ns...) }

// Len is the sample count.
func (r *Recorder) Len() int { return len(r.ns) }

// Bytes is the memory the samples occupy, so heap figures can leave the
// benchmark's own buffers out.
func (r *Recorder) Bytes() int64 { return int64(cap(r.ns)) * 8 }

// Summary is an exact order-statistic summary of a Recorder.
type Summary struct {
	N int
	// P50 is the nearest-rank median of all samples.
	P50 time.Duration
	// Tail is the nearest-rank quantile TailQ. When the recorder holds
	// at least two chunks (see tailChunk), Tail is the median of the
	// quantile taken over each chunk of consecutive samples, so one bad
	// second cannot move it; otherwise it is the quantile of all samples.
	// Either way TailQ is the requested quantile when at least minBeyond
	// samples lie beyond it, else the deepest quantile that has minBeyond
	// samples beyond it (never below the median). Beyond counts the
	// samples after it (per chunk when chunked); Chunks is the chunk
	// count (1 when unchunked).
	Tail   time.Duration
	TailQ  float64
	Beyond int
	Chunks int
}

// describe renders the summary with its sample count and where its tail
// sits, for the human-readable report.
func (s Summary) describe(name string) string {
	tail := fmt.Sprintf("tail p%.4g with %d samples beyond", 100*s.TailQ, s.Beyond)
	if s.Chunks > 1 {
		tail = fmt.Sprintf("tail p%.4g = median over %d chunks, %d samples beyond in each", 100*s.TailQ, s.Chunks, s.Beyond)
	}
	return fmt.Sprintf("%s: n=%d, p50 %.3f us, %s: %.3f us", name, s.N, us(s.P50), tail, us(s.Tail))
}

// tailChunk is the chunk size for quantile q: twice the samples needed
// to put minBeyond samples beyond q (2000 for p99).
func tailChunk(q float64) int { return 2 * int(math.Ceil(minBeyond/(1-q))) }

// rankIndex is the nearest-rank index of quantile q in n sorted samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return max(0, min(i, n-1))
}

// tailIndex is the index of the reported tail among n sorted samples.
func tailIndex(n int, q float64) int {
	return max(rankIndex(n, 0.5), min(rankIndex(n, q), n-1-minBeyond))
}

// Summarize reports the median and the tail at quantile q (see Summary).
// Samples stay in recording order until then, so chunks are consecutive
// stretches of each client's run.
func (r *Recorder) Summarize(q float64) Summary {
	n := len(r.ns)
	if n == 0 {
		return Summary{}
	}
	s := slices.Clone(r.ns)
	slices.Sort(s)
	ti := tailIndex(n, q)
	sum := Summary{
		N:      n,
		P50:    time.Duration(s[rankIndex(n, 0.5)]),
		Tail:   time.Duration(s[ti]),
		TailQ:  float64(ti+1) / float64(n),
		Beyond: n - 1 - ti,
		Chunks: 1,
	}
	size := tailChunk(q)
	if q <= 0.5 || n < 2*size {
		return sum
	}
	var tails []float64
	for lo := 0; lo+size <= n; lo += size {
		hi := lo + size
		if n-hi < size {
			hi = n // the remainder joins the last chunk
		}
		c := slices.Clone(r.ns[lo:hi])
		slices.Sort(c)
		tails = append(tails, float64(c[rankIndex(len(c), q)]))
	}
	sum.Tail = time.Duration(medianFloat(tails))
	sum.TailQ = q
	sum.Beyond = size - 1 - rankIndex(size, q)
	sum.Chunks = len(tails)
	return sum
}

// Mean is the arithmetic mean of the samples. Group-commit acks are
// bimodal — a batch's leader waits out the window, followers ride along
// — so their median can sit in the gap between the modes and flip from
// run to run; the mean weighs both modes and does not.
func (r *Recorder) Mean() time.Duration {
	if len(r.ns) == 0 {
		return 0
	}
	var sum float64
	for _, v := range r.ns {
		sum += float64(v)
	}
	return time.Duration(sum / float64(len(r.ns)))
}

// Median is Summarize(0.5).P50.
func (r *Recorder) Median() time.Duration { return r.Summarize(0.5).P50 }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianFloat is the midpoint median of xs (the mean of the two middle
// values for an even count).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
