// Package nn is a compact neural-network substrate with explicit
// reverse-mode gradients: dense layers, activations, losses, and the Adam
// optimizer. It exists so the repository can train the GNN models the paper
// treats as pre-trained black boxes (timing prediction, sub-circuit
// classification) with no dependencies beyond the standard library.
//
// All layers operate on row-major batches: x is (batch × features). Layers
// cache whatever the backward pass needs, so a Layer instance must not be
// shared across concurrent forward/backward pairs.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"cirstag/internal/mat"
	"cirstag/internal/parallel"
)

// Param is a trainable tensor with its gradient accumulator and Adam state.
type Param struct {
	W    *mat.Dense
	Grad *mat.Dense
	m, v *mat.Dense // Adam moments
}

// NewParam allocates a parameter of the given shape with zero values.
func NewParam(rows, cols int) *Param {
	return &Param{
		W:    mat.NewDense(rows, cols),
		Grad: mat.NewDense(rows, cols),
		m:    mat.NewDense(rows, cols),
		v:    mat.NewDense(rows, cols),
	}
}

// GlorotInit fills p.W with Glorot/Xavier-uniform values for the given fan
// sizes.
func (p *Param) GlorotInit(fanIn, fanOut int, rng *rand.Rand) {
	limit := math.Sqrt(6 / float64(fanIn+fanOut))
	for i := range p.W.Data {
		p.W.Data[i] = (2*rng.Float64() - 1) * limit
	}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.Grad.Data {
		p.Grad.Data[i] = 0
	}
}

// Layer is one differentiable stage.
type Layer interface {
	// Forward maps input to output and caches intermediates.
	Forward(x *mat.Dense) *mat.Dense
	// Backward receives ∂L/∂output and returns ∂L/∂input, accumulating
	// parameter gradients.
	Backward(grad *mat.Dense) *mat.Dense
	// Params returns the trainable parameters (possibly empty).
	Params() []*Param
}

// Linear is a fully connected layer y = x·W + b.
type Linear struct {
	In, Out int
	Weight  *Param // In x Out
	Bias    *Param // 1 x Out
	xCache  *mat.Dense
}

// NewLinear builds a Glorot-initialized dense layer.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	l := &Linear{In: in, Out: out, Weight: NewParam(in, out), Bias: NewParam(1, out)}
	l.Weight.GlorotInit(in, out, rng)
	return l
}

// Forward computes x·W + b.
func (l *Linear) Forward(x *mat.Dense) *mat.Dense {
	if x.Cols != l.In {
		panic(fmt.Sprintf("nn: Linear input has %d features, want %d", x.Cols, l.In))
	}
	l.xCache = x
	y := x.Mul(l.Weight.W)
	for i := 0; i < y.Rows; i++ {
		row := y.Data[i*y.Cols : (i+1)*y.Cols]
		for j := range row {
			row[j] += l.Bias.W.Data[j]
		}
	}
	return y
}

// Backward accumulates dW = xᵀg, db = Σ g rows and returns g·Wᵀ.
func (l *Linear) Backward(grad *mat.Dense) *mat.Dense {
	l.Weight.Grad.Add(l.xCache.MulT(grad))
	for i := 0; i < grad.Rows; i++ {
		row := grad.Data[i*grad.Cols : (i+1)*grad.Cols]
		for j := range row {
			l.Bias.Grad.Data[j] += row[j]
		}
	}
	return grad.Mul(l.Weight.W.T())
}

// Params returns the weight and bias.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// Clone returns a layer sharing this layer's weight and bias but owning its
// forward cache, so clones can run Forward concurrently (inference fan-out
// only; Backward still accumulates into the shared gradients).
func (l *Linear) Clone() *Linear {
	return &Linear{In: l.In, Out: l.Out, Weight: l.Weight, Bias: l.Bias}
}

// LeakyReLU with configurable negative slope.
type LeakyReLU struct {
	Alpha float64
	neg   []bool
}

// Forward applies max(x, αx).
func (r *LeakyReLU) Forward(x *mat.Dense) *mat.Dense {
	y := x.Clone()
	if cap(r.neg) < len(y.Data) {
		r.neg = make([]bool, len(y.Data))
	}
	r.neg = r.neg[:len(y.Data)]
	for i, v := range y.Data {
		if v < 0 {
			y.Data[i] = r.Alpha * v
			r.neg[i] = true
		} else {
			r.neg[i] = false
		}
	}
	return y
}

// Backward scales gradients on the negative side by α.
func (r *LeakyReLU) Backward(grad *mat.Dense) *mat.Dense {
	g := grad.Clone()
	for i := range g.Data {
		if r.neg[i] {
			g.Data[i] *= r.Alpha
		}
	}
	return g
}

// Params returns nil.
func (r *LeakyReLU) Params() []*Param { return nil }

// Tanh activation.
type Tanh struct{ yCache *mat.Dense }

// tanhCost is one math.Tanh in multiply-adds, as measured against the dense
// product's inner loop (about 13 ns against 1.3 ns on a 2-vCPU host).
const tanhCost = 10

// Forward applies tanh elementwise, sharded across the worker pool.
func (t *Tanh) Forward(x *mat.Dense) *mat.Dense {
	y := x.Clone()
	parallel.For(len(y.Data), parallel.Grain(tanhCost), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y.Data[i] = math.Tanh(y.Data[i])
		}
	})
	t.yCache = y
	return y
}

// Backward multiplies by 1 − tanh².
func (t *Tanh) Backward(grad *mat.Dense) *mat.Dense {
	g := grad.Clone()
	for i := range g.Data {
		y := t.yCache.Data[i]
		g.Data[i] *= 1 - y*y
	}
	return g
}

// Params returns nil.
func (t *Tanh) Params() []*Param { return nil }

// Sequential chains layers.
type Sequential struct{ Layers []Layer }

// NewSequential builds a chain.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward runs all layers in order.
func (s *Sequential) Forward(x *mat.Dense) *mat.Dense {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward runs all layers in reverse.
func (s *Sequential) Backward(grad *mat.Dense) *mat.Dense {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params collects every layer's parameters.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}
