package nn

import (
	"fmt"
	"math"

	"cirstag/internal/mat"
)

// MSE returns the mean-squared-error loss between prediction and target and
// the gradient ∂L/∂pred (averaged over all elements).
func MSE(pred, target *mat.Dense) (float64, *mat.Dense) {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic(fmt.Sprintf("nn: MSE shapes %dx%d vs %dx%d", pred.Rows, pred.Cols, target.Rows, target.Cols))
	}
	n := float64(len(pred.Data))
	if n == 0 {
		return 0, mat.NewDense(pred.Rows, pred.Cols)
	}
	grad := mat.NewDense(pred.Rows, pred.Cols)
	var loss float64
	for i, p := range pred.Data {
		d := p - target.Data[i]
		loss += d * d
		grad.Data[i] = 2 * d / n
	}
	return loss / n, grad
}

// SoftmaxCrossEntropy computes the mean cross-entropy of logits against
// integer class labels and the gradient ∂L/∂logits. Rows with label < 0 are
// ignored (masked out).
func SoftmaxCrossEntropy(logits *mat.Dense, labels []int) (float64, *mat.Dense) {
	if len(labels) != logits.Rows {
		panic(fmt.Sprintf("nn: labels %d, logits rows %d", len(labels), logits.Rows))
	}
	grad := mat.NewDense(logits.Rows, logits.Cols)
	var loss float64
	var cnt int
	for i := 0; i < logits.Rows; i++ {
		if labels[i] < 0 {
			continue
		}
		cnt++
	}
	if cnt == 0 {
		return 0, grad
	}
	inv := 1 / float64(cnt)
	for i := 0; i < logits.Rows; i++ {
		lab := labels[i]
		if lab < 0 {
			continue
		}
		row := logits.Data[i*logits.Cols : (i+1)*logits.Cols]
		// Stable softmax.
		mx := row[0]
		for _, v := range row[1:] {
			if v > mx {
				mx = v
			}
		}
		var z float64
		for _, v := range row {
			z += math.Exp(v - mx)
		}
		logZ := math.Log(z) + mx
		loss += (logZ - row[lab]) * inv
		grow := grad.Data[i*grad.Cols : (i+1)*grad.Cols]
		for j, v := range row {
			p := math.Exp(v - logZ)
			grow[j] = p * inv
		}
		grow[lab] -= inv
	}
	return loss, grad
}

// Argmax returns the index of the largest entry of each row.
func Argmax(m *mat.Dense) []int {
	out := make([]int, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}
