package nn

import (
	"math"
	"math/rand"
	"testing"

	"cirstag/internal/mat"
)

// numericalGrad computes dLoss/dθ for every parameter entry by central
// differences, where loss is recomputed through the full forward pass.
func numericalGrad(params []*Param, loss func() float64) []*mat.Dense {
	const h = 1e-6
	out := make([]*mat.Dense, len(params))
	for pi, p := range params {
		g := mat.NewDense(p.W.Rows, p.W.Cols)
		for i := range p.W.Data {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + h
			lp := loss()
			p.W.Data[i] = orig - h
			lm := loss()
			p.W.Data[i] = orig
			g.Data[i] = (lp - lm) / (2 * h)
		}
		out[pi] = g
	}
	return out
}

func maxRelErr(a, b *mat.Dense) float64 {
	var worst float64
	for i := range a.Data {
		d := math.Abs(a.Data[i] - b.Data[i])
		s := math.Max(math.Abs(a.Data[i])+math.Abs(b.Data[i]), 1e-6)
		if r := d / s; r > worst {
			worst = r
		}
	}
	return worst
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(120))
	lin := NewLinear(4, 3, rng)
	x := mat.NewDense(5, 4)
	target := mat.NewDense(5, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range target.Data {
		target.Data[i] = rng.NormFloat64()
	}
	loss := func() float64 {
		l, _ := MSE(lin.Forward(x), target)
		return l
	}
	// Analytic gradients.
	lin.Weight.ZeroGrad()
	lin.Bias.ZeroGrad()
	_, g := MSE(lin.Forward(x), target)
	lin.Backward(g)
	num := numericalGrad(lin.Params(), loss)
	if e := maxRelErr(lin.Weight.Grad, num[0]); e > 1e-5 {
		t.Fatalf("weight grad rel err %v", e)
	}
	if e := maxRelErr(lin.Bias.Grad, num[1]); e > 1e-5 {
		t.Fatalf("bias grad rel err %v", e)
	}
}

func TestSequentialGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	net := NewSequential(
		NewLinear(3, 8, rng),
		&Tanh{},
		NewLinear(8, 4, rng),
		&LeakyReLU{Alpha: 0.1},
		NewLinear(4, 2, rng),
	)
	x := mat.NewDense(6, 3)
	target := mat.NewDense(6, 2)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range target.Data {
		target.Data[i] = rng.NormFloat64()
	}
	loss := func() float64 {
		l, _ := MSE(net.Forward(x), target)
		return l
	}
	for _, p := range net.Params() {
		p.ZeroGrad()
	}
	_, g := MSE(net.Forward(x), target)
	net.Backward(g)
	num := numericalGrad(net.Params(), loss)
	for i, p := range net.Params() {
		if e := maxRelErr(p.Grad, num[i]); e > 1e-4 {
			t.Fatalf("param %d grad rel err %v", i, e)
		}
	}
}

func TestCrossEntropyGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	lin := NewLinear(4, 3, rng)
	x := mat.NewDense(7, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	labels := []int{0, 1, 2, 1, -1, 0, 2} // one masked row
	loss := func() float64 {
		l, _ := SoftmaxCrossEntropy(lin.Forward(x), labels)
		return l
	}
	lin.Weight.ZeroGrad()
	lin.Bias.ZeroGrad()
	_, g := SoftmaxCrossEntropy(lin.Forward(x), labels)
	lin.Backward(g)
	num := numericalGrad(lin.Params(), loss)
	if e := maxRelErr(lin.Weight.Grad, num[0]); e > 1e-4 {
		t.Fatalf("CE weight grad rel err %v", e)
	}
}

func TestReLUForwardBackward(t *testing.T) {
	r := &LeakyReLU{Alpha: 0.25}
	x := mat.FromRows([][]float64{{-1, 2}, {3, -4}})
	y := r.Forward(x)
	if y.At(0, 0) != -0.25 || y.At(0, 1) != 2 || y.At(1, 0) != 3 || y.At(1, 1) != -1 {
		t.Fatalf("LeakyReLU forward wrong: %+v", y)
	}
	g := r.Backward(mat.FromRows([][]float64{{4, 4}, {4, 4}}))
	if g.At(0, 0) != 1 || g.At(0, 1) != 4 || g.At(1, 0) != 4 || g.At(1, 1) != 1 {
		t.Fatal("LeakyReLU backward wrong")
	}
}

// softmaxOf recovers the row probabilities from SoftmaxCrossEntropy's
// gradient on an all-labelled batch: row i is (p_i − e_label)/rows.
func softmaxOf(logits *mat.Dense, labels []int) *mat.Dense {
	_, g := SoftmaxCrossEntropy(logits, labels)
	p := g.Clone()
	p.ScaleMat(float64(logits.Rows))
	for i, lab := range labels {
		p.Set(i, lab, p.At(i, lab)+1)
	}
	return p
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	logits := mat.NewDense(10, 5)
	for i := range logits.Data {
		logits.Data[i] = rng.NormFloat64() * 10
	}
	labels := make([]int, logits.Rows)
	for i := range labels {
		labels[i] = i % logits.Cols
	}
	p := softmaxOf(logits, labels)
	for i := 0; i < p.Rows; i++ {
		var s float64
		for j := 0; j < p.Cols; j++ {
			v := p.At(i, j)
			if v < -1e-12 || v > 1+1e-12 {
				t.Fatal("probability out of range")
			}
			s += v
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	logits := mat.FromRows([][]float64{{1000, 1001, 999}})
	loss, g := SoftmaxCrossEntropy(logits, []int{0})
	if want := math.Log(1 + math.E + 1/math.E); math.Abs(loss-want) > 1e-12 {
		t.Fatalf("loss %v, want %v", loss, want)
	}
	for _, v := range g.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("softmax overflowed")
		}
	}
}

func TestArgmax(t *testing.T) {
	m := mat.FromRows([][]float64{{1, 3, 2}, {9, 0, 0}})
	a := Argmax(m)
	if a[0] != 1 || a[1] != 0 {
		t.Fatalf("Argmax = %v", a)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize ||W - target||² directly through Adam.
	rng := rand.New(rand.NewSource(124))
	p := NewParam(3, 3)
	p.GlorotInit(3, 3, rng)
	target := mat.NewDense(3, 3)
	for i := range target.Data {
		target.Data[i] = rng.NormFloat64()
	}
	opt := NewAdam(0.05, []*Param{p})
	for it := 0; it < 2000; it++ {
		opt.ZeroGrad()
		for i := range p.W.Data {
			p.Grad.Data[i] = 2 * (p.W.Data[i] - target.Data[i])
		}
		opt.Step()
	}
	if !p.W.Equalish(target, 1e-3) {
		t.Fatal("Adam failed to minimize a quadratic")
	}
}

func TestAdamTrainsXOR(t *testing.T) {
	// Classic sanity check: a 2-layer MLP must fit XOR.
	rng := rand.New(rand.NewSource(125))
	net := NewSequential(
		NewLinear(2, 8, rng),
		&Tanh{},
		NewLinear(8, 1, rng),
	)
	x := mat.FromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	y := mat.FromRows([][]float64{{0}, {1}, {1}, {0}})
	opt := NewAdam(0.03, net.Params())
	var loss float64
	for it := 0; it < 3000; it++ {
		opt.ZeroGrad()
		pred := net.Forward(x)
		var g *mat.Dense
		loss, g = MSE(pred, y)
		net.Backward(g)
		opt.Step()
	}
	if loss > 1e-3 {
		t.Fatalf("XOR not learned: loss %v", loss)
	}
}

func TestGradClip(t *testing.T) {
	p := NewParam(1, 2)
	p.Grad.Data[0] = 3
	p.Grad.Data[1] = 4
	opt := NewAdam(0.1, []*Param{p})
	norm := opt.GradClip(1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm %v", norm)
	}
	var ss float64
	for _, g := range p.Grad.Data {
		ss += g * g
	}
	if math.Abs(math.Sqrt(ss)-1) > 1e-9 {
		t.Fatal("clip did not normalize to maxNorm")
	}
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	p := NewParam(1, 1)
	p.W.Data[0] = 10
	opt := NewAdam(0.1, []*Param{p})
	opt.Decay = 0.1
	for it := 0; it < 100; it++ {
		opt.ZeroGrad()
		opt.Step()
	}
	if math.Abs(p.W.Data[0]) >= 10 {
		t.Fatal("weight decay had no effect")
	}
}
