package main

import (
	"testing"
	"time"
)

// fill records the values n, n-1, ..., 1 (reverse order, so Summarize
// must sort).
func fill(n int) *Recorder {
	r := &Recorder{}
	for i := n; i >= 1; i-- {
		r.Add(time.Duration(i))
	}
	return r
}

func TestSummarizeRanks(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n         int
		q         float64
		p50, tail time.Duration
		tailQ     float64
		beyond    int
	}{
		// Enough samples: the nearest-rank p99 has 20 samples beyond it.
		{"p99 kept", 2000, 0.99, 1000, 1980, 0.99, 20},
		// Exactly minBeyond samples beyond p99.
		{"p99 boundary", 1000, 0.99, 500, 990, 0.99, 10},
		// p99 of 500 would leave 5 beyond: the tail moves down to the
		// deepest rank with 10 beyond (rank 490, p98).
		{"p99 clamped", 500, 0.99, 250, 490, 0.98, 10},
		// Too few samples for any tail below the median: the tail is the
		// median itself.
		{"tiny", 15, 0.99, 8, 8, 8.0 / 15, 7},
		{"one", 1, 0.99, 1, 1, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := fill(tc.n).Summarize(tc.q)
			if s.N != tc.n || s.P50 != tc.p50 || s.Tail != tc.tail || s.Beyond != tc.beyond {
				t.Fatalf("got N=%d p50=%d tail=%d beyond=%d, want N=%d p50=%d tail=%d beyond=%d",
					s.N, s.P50, s.Tail, s.Beyond, tc.n, tc.p50, tc.tail, tc.beyond)
			}
			if s.TailQ != tc.tailQ {
				t.Fatalf("tail quantile %v, want %v", s.TailQ, tc.tailQ)
			}
		})
	}
}

func TestSummarizeChunkedTail(t *testing.T) {
	// Three 2000-sample chunks whose own p99s are 1980, 3960 and 1980:
	// the tail is their median, not the p99 of all 6000 samples.
	r := fill(2000)
	for i := 2000; i >= 1; i-- {
		r.Add(time.Duration(2 * i))
	}
	r.Merge(fill(2000))
	s := r.Summarize(0.99)
	if s.Chunks != 3 || s.Tail != 1980 || s.TailQ != 0.99 || s.Beyond != 20 {
		t.Fatalf("got %+v, want 3 chunks, tail 1980 at p99 with 20 beyond", s)
	}
	// A remainder shorter than a chunk joins the last chunk.
	if s := fill(5000).Summarize(0.99); s.Chunks != 2 {
		t.Fatalf("5000 samples made %d chunks, want 2", s.Chunks)
	}
	// Below two chunks the tail is the plain p99 of all samples.
	if s := fill(3999).Summarize(0.99); s.Chunks != 1 || s.Tail != 3960 {
		t.Fatalf("3999 samples: got %+v, want one chunk and tail 3960", s)
	}
}

func TestSummarizeEmptyAndMerge(t *testing.T) {
	var r Recorder
	if s := r.Summarize(0.99); s != (Summary{}) {
		t.Fatalf("empty recorder summarized as %+v", s)
	}
	a, b := fill(10), fill(10)
	a.Merge(b)
	if a.Len() != 20 {
		t.Fatalf("merged %d samples, want 20", a.Len())
	}
	if got := a.Median(); got != 5 {
		t.Fatalf("median of two 1..10 runs is %d, want 5", got)
	}
}

func TestMedianFloat(t *testing.T) {
	if got := medianFloat([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median %v", got)
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median %v", got)
	}
}

func TestValueRoundTrip(t *testing.T) {
	key := []byte("user0000000042")
	v := appendValue(nil, key, 1, 77)
	if len(v) != valueLen {
		t.Fatalf("value has %d bytes", len(v))
	}
	w, seq, err := parseValue(key, v)
	if err != nil || w != 1 || seq != 77 {
		t.Fatalf("parse: writer %d seq %d err %v", w, seq, err)
	}
	if _, _, err := parseValue([]byte("user0000000043"), v); err == nil {
		t.Fatal("value accepted for another key")
	}
	v[20] ^= 1
	if _, _, err := parseValue(key, v); err == nil {
		t.Fatal("corrupted value passed its checksum")
	}
}
