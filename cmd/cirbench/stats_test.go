package main

import (
	"math"
	"testing"

	"cirstag/internal/bench"
)

func TestQuantileNearestRank(t *testing.T) {
	samples := []float64{7, 3, 10, 1, 5, 9, 2, 8, 4, 6}
	for _, c := range []struct{ q, want float64 }{
		{0.1, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {1, 10},
	} {
		if got := quantile(samples, c.q); got != c.want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(empty) = %g, want 0", got)
	}
	if samples[0] != 7 {
		t.Error("quantile reordered its input")
	}
}

func TestTailRuleNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{20, 0.5, true},  // rank 10, 10 beyond
		{19, 0.5, false}, // rank 10, 9 beyond
		{100, 0.9, true}, // rank 90, 10 beyond
		{99, 0.9, false}, // rank 90, 9 beyond
		{60, 0.8, true},  // rank 48, 12 beyond
		{120, 0.9, true}, // rank 108, 12 beyond
		{0, 0.5, false},
	} {
		if got := tailOK(c.n, c.q); got != c.want {
			t.Errorf("tailOK(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestRankAgreementOnHandCheckedVectors(t *testing.T) {
	ref := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	reversed := []int{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}
	swapped := []int{1, 0, 2, 3, 4, 5, 6, 7, 8, 9}
	for _, c := range []struct {
		name string
		got  []int
		want float64
	}{
		{"identical", ref, 1},
		{"reversed", reversed, -1},
		// One adjacent swap: 1 − 6·Σd²/(n(n²−1)) = 1 − 12/990.
		{"adjacent swap", swapped, 1 - 12.0/990},
	} {
		if got := rankSpearman(ref, c.got); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: Spearman = %.15g, want %.15g", c.name, got, c.want)
		}
	}

	ref20 := make([]int, 20)
	for i := range ref20 {
		ref20[i] = i
	}
	got := append([]int{1, 5}, 0, 2, 3, 4)
	for i := 6; i < 20; i++ {
		got = append(got, i)
	}
	if ov := decileOverlap(ref20, got); ov != 0.5 {
		t.Errorf("decile overlap = %g, want 0.5 (top 2 of 20: {0,1} vs {1,5})", ov)
	}
	if ov := decileOverlap(ref, reversed); ov != 0 {
		t.Errorf("decile overlap of reversed ranking = %g, want 0", ov)
	}
}

func TestFig5ExponentOfPowerLaw(t *testing.T) {
	var rows []bench.Fig5Row
	for _, n := range []int{1000, 2000, 4000, 8000, 16000} {
		rows = append(rows, bench.Fig5Row{Nodes: n, Edges: n / 3, Seconds: 2e-5 * math.Pow(float64(n+n/3), 1.3)})
	}
	if got := bench.LinearityFit(rows); math.Abs(got-1.3) > 1e-9 {
		t.Errorf("exponent of t ∝ size^1.3 = %g, want 1.3", got)
	}
}
