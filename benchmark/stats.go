package main

import "sort"

// sorted returns a sorted copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile of an ascending slice.
func percentile(asc []float64, p int) float64 {
	if len(asc) == 0 {
		return 0
	}
	idx := len(asc) * p / 100
	if idx >= len(asc) {
		idx = len(asc) - 1
	}
	return asc[idx]
}

func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method), which is
// how the acceptance driver measures run-to-run spread. Fewer than two values
// have no spread: both quartiles are the single value.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	s := (q3 - q1) / m
	if s < 0 {
		s = -s
	}
	return s
}
