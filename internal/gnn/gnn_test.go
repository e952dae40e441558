package gnn

import (
	"math"
	"math/rand"
	"testing"

	"cirstag/internal/graph"
	"cirstag/internal/mat"
	"cirstag/internal/nn"
	"cirstag/internal/parallel"
)

func smallGraph() *graph.Graph {
	g := graph.New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 4, 1)
	g.AddEdge(0, 4, 1)
	g.AddEdge(1, 3, 1)
	return g
}

func numericalGrad(params []*nn.Param, loss func() float64) []*mat.Dense {
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

func TestNormalizedAdjacencyProperties(t *testing.T) {
	g := smallGraph()
	a := NormalizedAdjacency(g)
	if !a.IsSymmetric(1e-12) {
		t.Fatal("Â not symmetric")
	}
	// Spectral radius of Â is 1 (eigenvector D̃^{1/2}·1).
	vals, _ := mat.SymEig(a.ToDense())
	if math.Abs(vals[len(vals)-1]-1) > 1e-9 {
		t.Fatalf("largest eigenvalue %v, want 1", vals[len(vals)-1])
	}
	if vals[0] < -1-1e-9 {
		t.Fatal("eigenvalue below -1")
	}
}

func TestGCNGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(130))
	g := smallGraph()
	adj := NormalizedAdjacency(g)
	layer := NewGCNLayer(adj, 3, 4, rng)
	x := mat.NewDense(5, 3)
	target := mat.NewDense(5, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range target.Data {
		target.Data[i] = rng.NormFloat64()
	}
	loss := func() float64 {
		l, _ := nn.MSE(layer.Forward(x), target)
		return l
	}
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	_, gr := nn.MSE(layer.Forward(x), target)
	layer.Backward(gr)
	num := numericalGrad(layer.Params(), loss)
	for i, p := range layer.Params() {
		if e := maxRelErr(p.Grad, num[i]); e > 1e-4 {
			t.Fatalf("GCN param %d grad rel err %v", i, e)
		}
	}
}

func TestGCNInputGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	g := smallGraph()
	adj := NormalizedAdjacency(g)
	layer := NewGCNLayer(adj, 2, 3, rng)
	x := mat.NewDense(5, 2)
	target := mat.NewDense(5, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range target.Data {
		target.Data[i] = rng.NormFloat64()
	}
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	_, gr := nn.MSE(layer.Forward(x), target)
	dx := layer.Backward(gr)
	// Numerical input gradient.
	const h = 1e-6
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp, _ := nn.MSE(layer.Forward(x), target)
		x.Data[i] = orig - h
		lm, _ := nn.MSE(layer.Forward(x), target)
		x.Data[i] = orig
		want := (lp - lm) / (2 * h)
		if math.Abs(dx.Data[i]-want) > 1e-5*math.Max(1, math.Abs(want)) {
			t.Fatalf("input grad[%d] = %v, want %v", i, dx.Data[i], want)
		}
	}
}

func TestGATGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	g := smallGraph()
	layer := NewGATLayer(g, 3, 4, 2, rng)
	x := mat.NewDense(5, 3)
	target := mat.NewDense(5, 8) // 2 heads × 4
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range target.Data {
		target.Data[i] = rng.NormFloat64()
	}
	loss := func() float64 {
		l, _ := nn.MSE(layer.Forward(x), target)
		return l
	}
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	_, gr := nn.MSE(layer.Forward(x), target)
	layer.Backward(gr)
	num := numericalGrad(layer.Params(), loss)
	for i, p := range layer.Params() {
		if e := maxRelErr(p.Grad, num[i]); e > 1e-3 {
			t.Fatalf("GAT param %d grad rel err %v", i, e)
		}
	}
}

func TestGATInputGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(133))
	g := smallGraph()
	layer := NewGATLayer(g, 2, 3, 1, rng)
	x := mat.NewDense(5, 2)
	target := mat.NewDense(5, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range target.Data {
		target.Data[i] = rng.NormFloat64()
	}
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	_, gr := nn.MSE(layer.Forward(x), target)
	dx := layer.Backward(gr)
	const h = 1e-6
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp, _ := nn.MSE(layer.Forward(x), target)
		x.Data[i] = orig - h
		lm, _ := nn.MSE(layer.Forward(x), target)
		x.Data[i] = orig
		want := (lp - lm) / (2 * h)
		if math.Abs(dx.Data[i]-want) > 1e-4*math.Max(1, math.Abs(want)) {
			t.Fatalf("GAT input grad[%d] = %v, want %v", i, dx.Data[i], want)
		}
	}
}

func TestGATAttentionSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(134))
	g := smallGraph()
	layer := NewGATLayer(g, 3, 4, 2, rng)
	x := mat.NewDense(5, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	layer.Forward(x)
	for h := 0; h < 2; h++ {
		for i := 0; i < 5; i++ {
			ns, a := layer.Attention(h, i)
			if len(ns) != len(a) {
				t.Fatal("attention list mismatch")
			}
			if ns[0] != i {
				t.Fatal("first neighbour must be the self-loop")
			}
			var s float64
			for _, v := range a {
				if v < 0 {
					t.Fatal("negative attention")
				}
				s += v
			}
			if math.Abs(s-1) > 1e-9 {
				t.Fatalf("attention of node %d sums to %v", i, s)
			}
		}
	}
}

func TestGCNSmoothsSignals(t *testing.T) {
	// One GCN layer with identity weights averages neighbourhoods, so a
	// spike input becomes smoother: the output variance must drop.
	g := smallGraph()
	adj := NormalizedAdjacency(g)
	rng := rand.New(rand.NewSource(135))
	layer := NewGCNLayer(adj, 1, 1, rng)
	layer.Weight.W.Set(0, 0, 1)
	layer.Bias.W.Set(0, 0, 0)
	x := mat.NewDense(5, 1)
	x.Set(2, 0, 10) // spike
	y := layer.Forward(x)
	varOf := func(m *mat.Dense) float64 {
		mean := mat.Mean(mat.Vec(m.Data))
		var v float64
		for _, d := range m.Data {
			v += (d - mean) * (d - mean)
		}
		return v
	}
	if varOf(y) >= varOf(x) {
		t.Fatal("GCN layer did not smooth the spike")
	}
}

func TestGNNEndToEndTraining(t *testing.T) {
	// A 2-layer GCN must learn to predict node degree from a constant input
	// (possible because Â encodes the structure).
	rng := rand.New(rand.NewSource(136))
	g := graph.New(12)
	for i := 1; i < 12; i++ {
		g.AddEdge(i, rng.Intn(i), 1)
	}
	g.AddEdge(0, 5, 1)
	g.AddEdge(2, 9, 1)
	adj := NormalizedAdjacency(g)
	model := nn.NewSequential(
		NewGCNLayer(adj, 1, 16, rng),
		&nn.Tanh{},
		NewGCNLayer(adj, 16, 16, rng),
		&nn.Tanh{},
		nn.NewLinear(16, 1, rng),
	)
	x := mat.NewDense(12, 1)
	for i := range x.Data {
		x.Data[i] = 1
	}
	target := mat.NewDense(12, 1)
	for i := 0; i < 12; i++ {
		target.Set(i, 0, float64(g.Degree(i)))
	}
	opt := nn.NewAdam(0.01, model.Params())
	for it := 0; it < 3000; it++ {
		opt.ZeroGrad()
		pred := model.Forward(x)
		_, gr := nn.MSE(pred, target)
		model.Backward(gr)
		opt.Step()
	}
	// Judge by R²: nodes with identical receptive fields are provably
	// indistinguishable to a GCN (WL limit), so exact fit is impossible, but
	// the fit must explain most of the degree variance.
	pred := model.Forward(x)
	var ssRes, ssTot float64
	meanT := mat.Mean(mat.Vec(target.Data))
	for i := range target.Data {
		d := pred.Data[i] - target.Data[i]
		ssRes += d * d
		dt := target.Data[i] - meanT
		ssTot += dt * dt
	}
	r2 := 1 - ssRes/ssTot
	if r2 < 0.85 {
		t.Fatalf("GCN failed to learn degrees: R² = %v", r2)
	}
}

func TestGCNRebindSharesWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	g := smallGraph()
	layer := NewGCNLayer(NormalizedAdjacency(g), 3, 4, rng)
	x := mat.NewDense(5, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	// Rebinding to the same adjacency must reproduce the output exactly.
	same := layer.Rebind(NormalizedAdjacency(g))
	if !layer.Forward(x).Equalish(same.Forward(x), 1e-12) {
		t.Fatal("rebind to identical graph changed the output")
	}
	// Rebinding to a different graph changes the output but not the weights.
	g2 := smallGraph()
	g2.AddEdge(0, 2, 1)
	other := layer.Rebind(NormalizedAdjacency(g2))
	if layer.Forward(x).Equalish(other.Forward(x), 1e-9) {
		t.Fatal("different topology should change the output")
	}
	// Weight identity: mutating the original's weight affects the rebound.
	layer.Weight.W.Data[0] += 1
	if other.Weight.W.Data[0] != layer.Weight.W.Data[0] {
		t.Fatal("rebound layer does not share parameters")
	}
}

func TestGATRebindSharesWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(138))
	g := smallGraph()
	layer := NewGATLayer(g, 3, 4, 2, rng)
	x := mat.NewDense(5, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	same := layer.Rebind(g.Clone())
	if !layer.Forward(x).Equalish(same.Forward(x), 1e-12) {
		t.Fatal("rebind to identical graph changed the output")
	}
	g2 := smallGraph()
	g2.AddEdge(1, 4, 1)
	other := layer.Rebind(g2)
	if layer.Forward(x).Equalish(other.Forward(x), 1e-9) {
		t.Fatal("different topology should change the output")
	}
	if other.W[0] != layer.W[0] {
		t.Fatal("rebound GAT does not share parameters")
	}
}

func TestSAGEGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	g := smallGraph()
	layer := NewSAGELayer(g, 3, 4, rng)
	x := mat.NewDense(5, 3)
	target := mat.NewDense(5, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range target.Data {
		target.Data[i] = rng.NormFloat64()
	}
	loss := func() float64 {
		l, _ := nn.MSE(layer.Forward(x), target)
		return l
	}
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	_, gr := nn.MSE(layer.Forward(x), target)
	dx := layer.Backward(gr)
	num := numericalGrad(layer.Params(), loss)
	for i, p := range layer.Params() {
		if e := maxRelErr(p.Grad, num[i]); e > 1e-4 {
			t.Fatalf("SAGE param %d grad rel err %v", i, e)
		}
	}
	// Input gradient via finite differences.
	const h = 1e-6
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp, _ := nn.MSE(layer.Forward(x), target)
		x.Data[i] = orig - h
		lm, _ := nn.MSE(layer.Forward(x), target)
		x.Data[i] = orig
		want := (lp - lm) / (2 * h)
		if math.Abs(dx.Data[i]-want) > 1e-5*math.Max(1, math.Abs(want)) {
			t.Fatalf("SAGE input grad[%d] = %v, want %v", i, dx.Data[i], want)
		}
	}
}

func TestMeanAdjacencyRowStochastic(t *testing.T) {
	g := smallGraph()
	m := MeanAdjacency(g)
	ones := make(mat.Vec, g.N())
	ones.Fill(1)
	rows := m.MulVec(ones)
	for i, r := range rows {
		if g.Degree(i) > 0 && math.Abs(r-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, r)
		}
	}
}

func TestSAGEDistinguishesSelfFromNeighbours(t *testing.T) {
	// With W_self = I, W_nbr = 0 the layer is the identity; with W_self = 0,
	// W_nbr = I it is pure neighbourhood averaging.
	g := smallGraph()
	rng := rand.New(rand.NewSource(140))
	l := NewSAGELayer(g, 2, 2, rng)
	for i := range l.WSelf.W.Data {
		l.WSelf.W.Data[i] = 0
		l.WNbr.W.Data[i] = 0
	}
	l.WSelf.W.Set(0, 0, 1)
	l.WSelf.W.Set(1, 1, 1)
	for i := range l.Bias.W.Data {
		l.Bias.W.Data[i] = 0
	}
	x := mat.NewDense(5, 2)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	if !l.Forward(x).Equalish(x, 1e-12) {
		t.Fatal("identity configuration is not the identity")
	}
}

// TestGATForwardWorkerCountBitIdentical: the GAT forward shards its per-node
// softmax and aggregation by parallel.Grain, and every node writes only its
// own output row and attention vector, so outputs and attention are
// bit-identical at 1, 2 and 4 workers, for a graph inside one chunk and one
// spanning several.
func TestGATForwardWorkerCountBitIdentical(t *testing.T) {
	defer parallel.SetWorkers(0)
	const in, out, heads = 5, 6, 2
	for _, n := range []int{5, 3000} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddEdge(i, (i+1)%n, 1)
			if j := rng.Intn(n); j != i && !g.HasEdge(i, j) {
				g.AddEdge(i, j, 1)
			}
		}
		grain := parallel.Grain(out * (n + 2*g.M()) / n)
		if big := n > 5; big != (n > grain) {
			t.Fatalf("n=%d: chunks of %d nodes put the graph on the wrong side of one chunk", n, grain)
		}
		layer := NewGATLayer(g, in, out, heads, rng)
		x := mat.NewDense(n, in)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		parallel.SetWorkers(1)
		ref := layer.Forward(x)
		refAlpha := make([]mat.Vec, n)
		for i := range refAlpha {
			_, refAlpha[i] = layer.Attention(heads-1, i)
		}
		for _, w := range []int{2, 4} {
			parallel.SetWorkers(w)
			got := layer.Forward(x)
			for i := range ref.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(ref.Data[i]) {
					t.Fatalf("n=%d workers=%d: output element %d differs from one worker", n, w, i)
				}
			}
			for i := range refAlpha {
				_, a := layer.Attention(heads-1, i)
				for k := range a {
					if math.Float64bits(a[k]) != math.Float64bits(refAlpha[i][k]) {
						t.Fatalf("n=%d workers=%d: attention of node %d differs from one worker", n, w, i)
					}
				}
			}
		}
	}
}
