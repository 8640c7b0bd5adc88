package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a tail figure resting on fewer samples is an anecdote.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It fails
// when fewer than minBeyond samples lie strictly beyond the chosen rank, so
// p99 needs at least 1000 samples and p90 at least 100.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", q)
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it (need %d)", 100*q, n, beyond, minBeyond)
	}
	s := sortedCopy(xs)
	return s[idx], nil
}

// groupedPercentile splits xs, in the order the samples were taken, into
// consecutive groups of the fewest samples that give the q-percentile ten
// samples beyond it (the remainder joins the last group), and returns the
// median over the groups of each group's q-percentile, with the group
// count. On a shared host, noise comes in bursts: pooled, one burst can
// fill the top percent of a whole run; grouped, it moves only the groups
// it falls in, and the median over groups sets it aside.
func groupedPercentile(xs []float64, q float64) (float64, int, error) {
	size := minSamplesFor(q)
	n := len(xs) / size
	if n == 0 {
		return 0, 0, fmt.Errorf("p%g needs %d samples, have %d", 100*q, size, len(xs))
	}
	ps := make([]float64, n)
	for i := range ps {
		end := (i + 1) * size
		if i == n-1 {
			end = len(xs)
		}
		p, err := percentile(xs[i*size:end], q)
		if err != nil {
			return 0, 0, err
		}
		ps[i] = p
	}
	return median(ps), n, nil
}

// minSamplesFor returns the smallest sample count whose q-percentile has
// minBeyond samples beyond it.
func minSamplesFor(q float64) int {
	for n := minBeyond + 1; ; n++ {
		idx := int(math.Ceil(q*float64(n))) - 1
		if n-1-idx >= minBeyond {
			return n
		}
	}
}

// median returns the middle value of xs (mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2 and Q3 with the same rule as Python's
// statistics.quantiles(data, n=4) (the default "exclusive" method), so the
// spread report agrees with an external check made with that function.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", ld)
	}
	s := sortedCopy(xs)
	const n = 4
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2], nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
