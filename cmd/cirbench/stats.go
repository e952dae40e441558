package main

import (
	"math"
	"sort"

	"cirstag/internal/mat"
	"cirstag/internal/metrics"
)

// minTail is how many samples must lie beyond a reported percentile: fewer
// and the percentile is one or two unlucky samples, not a tail.
const minTail = 10

// quantile returns the nearest-rank q-quantile of samples, q in (0, 1]: the
// smallest sample with at least ceil(q·n) samples at or below it. Empty input
// yields 0.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailOK reports whether the q-quantile of n samples has at least minTail
// samples beyond it, the rule for printing that percentile at all.
func tailOK(n int, q float64) bool {
	return n > 0 && n-rank(n, q) >= minTail
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

// positions inverts a ranking (node ids, most unstable first) into each
// node's rank position, the vector Spearman correlates.
func positions(order []int) mat.Vec {
	p := make(mat.Vec, len(order))
	for i, v := range order {
		p[v] = float64(i)
	}
	return p
}

// rankSpearman is the Spearman correlation of two rankings of the same node
// set.
func rankSpearman(ref, got []int) float64 {
	return metrics.Spearman(positions(ref), positions(got))
}

// decileOverlap is the share of the reference's top 10% (at least one node)
// that is also in got's top 10%.
func decileOverlap(ref, got []int) float64 {
	k := len(ref) / 10
	if k < 1 {
		k = 1
	}
	if k > len(got) {
		return 0
	}
	top := make(map[int]bool, k)
	for _, v := range ref[:k] {
		top[v] = true
	}
	hit := 0
	for _, v := range got[:k] {
		if top[v] {
			hit++
		}
	}
	return float64(hit) / float64(k)
}
