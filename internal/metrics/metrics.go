// Package metrics collects the evaluation statistics used by the experiment
// harness: R², macro-F1, cosine similarity, accuracy and rank correlations.
//
// # Degenerate-input convention
//
// Every statistic in this package is total over finite inputs: when the
// mathematical definition is indeterminate — a zero-variance (constant)
// vector under Pearson/Spearman, a constant target under R², vectors too
// short for a correlation — the function returns 0 (or 1 for a perfect R²
// fit of a constant target) rather than NaN or ±Inf. This keeps experiment
// tables and JSON reports NaN-free by construction. Callers that must
// distinguish "correlation is zero" from "correlation is undefined" use the
// OK variants (R2OK, PearsonOK, SpearmanOK), whose second result is false
// exactly when the convention, not the data, produced the value.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"cirstag/internal/mat"
)

// R2 returns the coefficient of determination of predictions against
// targets: 1 − SS_res/SS_tot. A constant target yields R² = 0 by convention
// unless predictions match exactly (then 1); see the package comment.
func R2(pred, target mat.Vec) float64 {
	v, _ := R2OK(pred, target)
	return v
}

// R2OK is R2 with an explicit definedness flag: ok is false when the target
// has zero variance (SS_tot = 0), where R² is mathematically indeterminate
// and the returned value follows the package convention.
func R2OK(pred, target mat.Vec) (v float64, ok bool) {
	if len(pred) != len(target) {
		panic(fmt.Sprintf("metrics: R2 lengths %d vs %d", len(pred), len(target)))
	}
	if len(pred) == 0 {
		return 0, false
	}
	mean := mat.Mean(target)
	var ssRes, ssTot float64
	for i := range pred {
		d := pred[i] - target[i]
		ssRes += d * d
		dt := target[i] - mean
		ssTot += dt * dt
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1, false
		}
		return 0, false
	}
	return 1 - ssRes/ssTot, true
}

// CosineSimilarity returns the cosine of the angle between two vectors
// (0 when either is the zero vector).
func CosineSimilarity(a, b mat.Vec) float64 {
	na, nb := mat.Norm2(a), mat.Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return mat.Dot(a, b) / (na * nb)
}

// MeanRowCosine returns the average cosine similarity between corresponding
// rows of two matrices — the embedding-similarity metric of Case Study B.
func MeanRowCosine(a, b *mat.Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("metrics: MeanRowCosine shapes %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if a.Rows == 0 {
		return 0
	}
	var s float64
	for i := 0; i < a.Rows; i++ {
		s += CosineSimilarity(a.Row(i), b.Row(i))
	}
	return s / float64(a.Rows)
}

// F1Macro computes the macro-averaged F1 score over numClasses classes.
// Rows with trueLabel < 0 are ignored. Classes absent from both predictions
// and ground truth contribute F1 = 0 only if they appear in ground truth;
// classes never seen in ground truth are skipped.
func F1Macro(pred, truth []int, numClasses int) float64 {
	if len(pred) != len(truth) {
		panic(fmt.Sprintf("metrics: F1Macro lengths %d vs %d", len(pred), len(truth)))
	}
	tp := make([]float64, numClasses)
	fp := make([]float64, numClasses)
	fn := make([]float64, numClasses)
	seen := make([]bool, numClasses)
	for i := range pred {
		t := truth[i]
		if t < 0 {
			continue
		}
		p := pred[i]
		seen[t] = true
		if p == t {
			tp[t]++
		} else {
			fn[t]++
			if p >= 0 && p < numClasses {
				fp[p]++
			}
		}
	}
	var sum float64
	var cnt int
	for c := 0; c < numClasses; c++ {
		if !seen[c] {
			continue
		}
		cnt++
		denom := 2*tp[c] + fp[c] + fn[c]
		if denom == 0 {
			continue
		}
		sum += 2 * tp[c] / denom
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// Accuracy returns the fraction of matching labels (ignoring truth < 0).
func Accuracy(pred, truth []int) float64 {
	var hit, tot int
	for i := range pred {
		if truth[i] < 0 {
			continue
		}
		tot++
		if pred[i] == truth[i] {
			hit++
		}
	}
	if tot == 0 {
		return 0
	}
	return float64(hit) / float64(tot)
}

// ranks assigns average ranks to the values (ties share the mean rank).
func ranks(v mat.Vec) mat.Vec {
	n := len(v)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	r := make(mat.Vec, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

// Spearman returns the Spearman rank correlation between x and y, 0 when
// undefined (fewer than two points or a constant vector; see the package
// comment).
func Spearman(x, y mat.Vec) float64 {
	v, _ := SpearmanOK(x, y)
	return v
}

// SpearmanOK is Spearman with an explicit definedness flag: ok is false for
// vectors shorter than two or when either vector is constant (all ranks
// tied), where rank correlation is mathematically indeterminate.
func SpearmanOK(x, y mat.Vec) (v float64, ok bool) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("metrics: Spearman lengths %d vs %d", len(x), len(y)))
	}
	if len(x) < 2 {
		return 0, false
	}
	return PearsonOK(ranks(x), ranks(y))
}

// Pearson returns the Pearson correlation coefficient, 0 when undefined
// (fewer than two points or a zero-variance vector; see the package comment).
func Pearson(x, y mat.Vec) float64 {
	v, _ := PearsonOK(x, y)
	return v
}

// PearsonOK is Pearson with an explicit definedness flag: ok is false for
// vectors shorter than two or when either vector has zero variance, where the
// correlation is mathematically indeterminate (0/0).
func PearsonOK(x, y mat.Vec) (v float64, ok bool) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("metrics: Pearson lengths %d vs %d", len(x), len(y)))
	}
	n := float64(len(x))
	if n < 2 {
		return 0, false
	}
	mx, my := mat.Mean(x), mat.Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, false
	}
	return sxy / math.Sqrt(sxx*syy), true
}
