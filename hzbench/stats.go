package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail is the highest percentile of a sample that still has at least
// minBeyond samples above it.
type tail struct {
	Value      float64
	Percentile float64 // in [0, 100]
	Samples    int
}

// minBeyond is the number of samples a reported tail percentile must
// have beyond it.
const minBeyond = 10

// tailOf returns the sample with exactly minBeyond samples above it and
// the percentile that position stands for. A sample too small to leave
// minBeyond samples beyond any position reports its maximum as p100, so
// the caller can see from Percentile that no tail was resolved.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{Value: math.NaN()}
	}
	s := sorted(xs)
	if n <= minBeyond {
		return tail{Value: s[n-1], Percentile: 100, Samples: n}
	}
	i := n - 1 - minBeyond
	return tail{Value: s[i], Percentile: 100 * float64(i+1) / float64(n), Samples: n}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
