package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly beyond a tail percentile
// before the benchmark reports it: fewer than that and the "percentile" is
// one or two unlucky samples, not a property of the system.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs and the number of samples strictly beyond it. xs need not be sorted;
// it is not modified. ok is false for an empty sample.
func percentile(xs []float64, p float64) (v float64, beyond int, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	v = s[rank-1]
	beyond = len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	return v, beyond, true
}

// tail returns the p-th percentile only when at least minBeyond samples lie
// beyond it; ok is false otherwise, and the caller reports the percentile
// as unsupported rather than as a number.
func tail(xs []float64, p float64) (v float64, beyond int, ok bool) {
	v, beyond, ok = percentile(xs, p)
	return v, beyond, ok && beyond >= minBeyond
}

func median(xs []float64) float64 {
	v, _, _ := percentile(xs, 50)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
