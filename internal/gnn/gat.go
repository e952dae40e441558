package gnn

import (
	"fmt"
	"math"
	"math/rand"

	"cirstag/internal/graph"
	"cirstag/internal/mat"
	"cirstag/internal/nn"
	"cirstag/internal/parallel"
)

// GATLayer is a multi-head graph attention layer (Veličković et al.) with
// exact gradients. Head outputs are concatenated, so the layer output width
// is Heads·Out. Attention coefficients use the standard decomposition
// e_ij = LeakyReLU(a_Lᵀ·z_i + a_Rᵀ·z_j) with z = X·W, normalized by softmax
// over each node's in-neighbourhood (which includes a self-loop).
type GATLayer struct {
	In, Out, Heads int
	NegSlope       float64 // LeakyReLU slope inside attention (default 0.2)

	// Per-head parameters.
	W  []*nn.Param // In x Out
	AL []*nn.Param // Out x 1
	AR []*nn.Param // Out x 1

	// Graph structure: nbr[i] lists j for every attention edge i←j
	// (neighbours plus self-loop).
	nbr [][]int

	// Forward caches (per head).
	xCache *mat.Dense
	z      []*mat.Dense // n x Out
	alpha  [][]mat.Vec  // alpha[h][i][k] matches nbr[i][k]
}

// NewGATLayer builds a GAT layer over graph g.
func NewGATLayer(g *graph.Graph, in, out, heads int, rng *rand.Rand) *GATLayer {
	if heads < 1 {
		panic("gnn: GAT needs at least one head")
	}
	n := g.N()
	nbr := make([][]int, n)
	for i := 0; i < n; i++ {
		ns := g.SortedNeighbors(i)
		nbr[i] = append([]int{i}, ns...) // self-loop first
	}
	l := &GATLayer{In: in, Out: out, Heads: heads, NegSlope: 0.2, nbr: nbr}
	for h := 0; h < heads; h++ {
		w := nn.NewParam(in, out)
		w.GlorotInit(in, out, rng)
		al := nn.NewParam(out, 1)
		al.GlorotInit(out, 1, rng)
		ar := nn.NewParam(out, 1)
		ar.GlorotInit(out, 1, rng)
		l.W = append(l.W, w)
		l.AL = append(l.AL, al)
		l.AR = append(l.AR, ar)
	}
	return l
}

// Forward computes attention-weighted aggregation for every head and
// concatenates the results (n x Heads·Out).
func (l *GATLayer) Forward(x *mat.Dense) *mat.Dense {
	forwardCalls.Inc()
	if x.Cols != l.In {
		panic(fmt.Sprintf("gnn: GAT input %d features, want %d", x.Cols, l.In))
	}
	n := len(l.nbr)
	if x.Rows != n {
		panic(fmt.Sprintf("gnn: GAT input %d rows, graph has %d nodes", x.Rows, n))
	}
	l.xCache = x
	l.z = make([]*mat.Dense, l.Heads)
	l.alpha = make([][]mat.Vec, l.Heads)
	out := mat.NewDense(n, l.Heads*l.Out)
	// A node's softmax and aggregation cost about Out multiply-adds per
	// attention edge (its neighbours plus the self-loop).
	edges := 0
	for _, ns := range l.nbr {
		edges += len(ns)
	}
	for h := 0; h < l.Heads; h++ {
		z := x.Mul(l.W[h].W)
		l.z[h] = z
		s := z.MulVec(l.AL[h].W.Col(0)) // n
		t := z.MulVec(l.AR[h].W.Col(0)) // n
		alphas := make([]mat.Vec, n)
		// Each node's softmax and aggregation touch only alphas[i] and its own
		// output-row segment, so the per-node loop fans out across the worker
		// pool (z, s, t are read-only here).
		parallel.ForEach(n, parallel.Grain(l.Out*edges/max(n, 1)), func(i int) {
			ns := l.nbr[i]
			e := make(mat.Vec, len(ns))
			mx := math.Inf(-1)
			for k, j := range ns {
				v := s[i] + t[j]
				if v < 0 {
					v *= l.NegSlope
				}
				e[k] = v
				if v > mx {
					mx = v
				}
			}
			var zsum float64
			for k := range e {
				e[k] = math.Exp(e[k] - mx)
				zsum += e[k]
			}
			for k := range e {
				e[k] /= zsum
			}
			alphas[i] = e
			// Aggregate.
			orow := out.Data[i*out.Cols+h*l.Out : i*out.Cols+(h+1)*l.Out]
			for k, j := range ns {
				a := e[k]
				zrow := z.Data[j*l.Out : (j+1)*l.Out]
				for c, v := range zrow {
					orow[c] += a * v
				}
			}
		})
		l.alpha[h] = alphas
	}
	return out
}

// Backward propagates through aggregation, softmax, the LeakyReLU attention
// logits, and the linear maps, accumulating all parameter gradients.
func (l *GATLayer) Backward(grad *mat.Dense) *mat.Dense {
	backwardCalls.Inc()
	n := len(l.nbr)
	dx := mat.NewDense(n, l.In)
	for h := 0; h < l.Heads; h++ {
		z := l.z[h]
		alphas := l.alpha[h]
		al := l.AL[h].W.Col(0)
		ar := l.AR[h].W.Col(0)
		dz := mat.NewDense(n, l.Out)
		ds := make(mat.Vec, n)
		dt := make(mat.Vec, n)
		s := z.MulVec(al)
		t := z.MulVec(ar)
		for i := 0; i < n; i++ {
			ns := l.nbr[i]
			a := alphas[i]
			gi := grad.Data[i*grad.Cols+h*l.Out : i*grad.Cols+(h+1)*l.Out]
			// dα_ik = g_i · z_j ; also dz_j += α_ik g_i.
			dalpha := make(mat.Vec, len(ns))
			for k, j := range ns {
				zrow := z.Data[j*l.Out : (j+1)*l.Out]
				var dot float64
				for c, v := range gi {
					dot += v * zrow[c]
					dz.Data[j*l.Out+c] += a[k] * v
				}
				dalpha[k] = dot
			}
			// Softmax backward: de_k = α_k (dα_k − Σ_m α_m dα_m).
			var mix float64
			for k := range ns {
				mix += a[k] * dalpha[k]
			}
			for k, j := range ns {
				de := a[k] * (dalpha[k] - mix)
				// LeakyReLU backward on pre-activation s_i + t_j.
				if s[i]+t[j] < 0 {
					de *= l.NegSlope
				}
				ds[i] += de
				dt[j] += de
			}
		}
		// s = Z·aL, t = Z·aR:
		//   dZ += ds·aLᵀ + dt·aRᵀ;  daL = Zᵀ·ds;  daR = Zᵀ·dt.
		for i := 0; i < n; i++ {
			zr := dz.Data[i*l.Out : (i+1)*l.Out]
			for c := 0; c < l.Out; c++ {
				zr[c] += ds[i]*al[c] + dt[i]*ar[c]
			}
		}
		dal := z.MulVecT(ds)
		dar := z.MulVecT(dt)
		for c := 0; c < l.Out; c++ {
			l.AL[h].Grad.Data[c] += dal[c]
			l.AR[h].Grad.Data[c] += dar[c]
		}
		// z = X·W: dW = Xᵀ·dZ ; dX += dZ·Wᵀ.
		l.W[h].Grad.Add(l.xCache.MulT(dz))
		dx.Add(dz.Mul(l.W[h].W.T()))
	}
	return dx
}

// Params returns all per-head parameters.
func (l *GATLayer) Params() []*nn.Param {
	out := make([]*nn.Param, 0, 3*l.Heads)
	for h := 0; h < l.Heads; h++ {
		out = append(out, l.W[h], l.AL[h], l.AR[h])
	}
	return out
}

// Attention returns the attention coefficients of head h as (neighbour list,
// weights) for node i; exposed for interpretability and tests.
func (l *GATLayer) Attention(h, i int) ([]int, mat.Vec) {
	return l.nbr[i], l.alpha[h][i]
}

// Rebind returns a new layer sharing this layer's parameters but bound to a
// different graph — used to re-run a trained model on a perturbed topology
// (Case Study B).
func (l *GATLayer) Rebind(g *graph.Graph) *GATLayer {
	n := g.N()
	nbr := make([][]int, n)
	for i := 0; i < n; i++ {
		nbr[i] = append([]int{i}, g.SortedNeighbors(i)...)
	}
	return &GATLayer{
		In: l.In, Out: l.Out, Heads: l.Heads, NegSlope: l.NegSlope,
		W: l.W, AL: l.AL, AR: l.AR, nbr: nbr,
	}
}

// Clone returns a layer sharing this layer's parameters and graph binding but
// owning its forward caches, so clones can run Forward concurrently (for
// inference fan-out; gradients still accumulate into the shared params, so
// concurrent Backward is not safe).
func (l *GATLayer) Clone() *GATLayer {
	return &GATLayer{
		In: l.In, Out: l.Out, Heads: l.Heads, NegSlope: l.NegSlope,
		W: l.W, AL: l.AL, AR: l.AR, nbr: l.nbr,
	}
}
