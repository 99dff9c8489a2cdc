package main

import (
	"math"
	"slices"
)

// samples records every latency of a run as raw nanoseconds, so each
// percentile is exact: the nearest-rank value of the samples themselves,
// with no bucketing error.
type samples []int64

func (s *samples) add(ns int64) { *s = append(*s, ns) }

func merge(parts ...samples) samples {
	var out samples
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// quantile returns the nearest-rank q-quantile: the smallest sample with
// at least q of all samples at or below it. It sorts s in place.
func (s samples) quantile(q float64) int64 {
	if len(s) == 0 {
		return 0
	}
	slices.Sort(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// deepest is the highest of p50, p90, p99, p99.9, p99.99 and so on that
// still has at least ten samples above it, the deepest percentile the
// sample supports.
func (s samples) deepest() float64 {
	q := 0.5
	for tail := 10; len(s) >= 10*tail; tail *= 10 {
		q = 1 - 1/float64(tail)
	}
	return q
}

// latency is the report of one latency population.
type latency struct {
	N         int     `json:"n"`
	P50us     float64 `json:"p50_us"`
	P90us     float64 `json:"p90_us"`
	P99us     float64 `json:"p99_us"`
	DeepestQ  float64 `json:"deepest_q"`
	DeepestUs float64 `json:"deepest_us"`
}

func (s samples) report() latency {
	if len(s) == 0 {
		return latency{}
	}
	d := s.deepest()
	return latency{
		N:         len(s),
		P50us:     float64(s.quantile(0.50)) / 1e3,
		P90us:     float64(s.quantile(0.90)) / 1e3,
		P99us:     float64(s.quantile(0.99)) / 1e3,
		DeepestQ:  d,
		DeepestUs: float64(s.quantile(d)) / 1e3,
	}
}
