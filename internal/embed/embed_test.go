package embed

import (
	"math"
	"math/rand"
	"testing"

	"cirstag/internal/graph"
	"cirstag/internal/mat"
)

func randomConnectedGraph(rng *rand.Rand, n, extra int) *graph.Graph {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i, rng.Intn(i), 0.1+rng.Float64())
	}
	for k := 0; k < extra; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v, 0.1+rng.Float64())
		}
	}
	return g
}

func TestSpectralDims(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	g := randomConnectedGraph(rng, 50, 80)
	r := Spectral(g, rng, Options{Dims: 8})
	if r.U.Rows != 50 || r.U.Cols != 8 {
		t.Fatalf("embedding dims %dx%d, want 50x8", r.U.Rows, r.U.Cols)
	}
	if len(r.Values) != 8 {
		t.Fatal("values length wrong")
	}
	// Eigenvalues ascending and in [0, 2].
	for i, v := range r.Values {
		if v < -1e-9 || v > 2+1e-9 {
			t.Fatalf("eigenvalue %v out of range", v)
		}
		if i > 0 && v < r.Values[i-1]-1e-9 {
			t.Fatal("eigenvalues not ascending")
		}
	}
}

func TestSpectralColumnNormsMatchWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	g := randomConnectedGraph(rng, 40, 60)
	r := Spectral(g, rng, Options{Dims: 5})
	for j := 0; j < 5; j++ {
		want := math.Sqrt(math.Abs(1 - r.Values[j]))
		got := mat.Norm2(r.U.Col(j))
		if math.Abs(got-want) > 1e-8 {
			t.Fatalf("column %d norm %v, want %v", j, got, want)
		}
	}
}

func TestSpectralSeparatesClusters(t *testing.T) {
	// Two dense clusters joined by one weak edge: embedded distance within a
	// cluster must be far below distance across clusters.
	rng := rand.New(rand.NewSource(102))
	n := 30
	g := graph.New(2 * n)
	for c := 0; c < 2; c++ {
		base := c * n
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					g.AddEdge(base+i, base+j, 1)
				}
			}
		}
	}
	g.AddEdge(0, n, 0.01) // weak bridge
	if !g.IsConnected() {
		t.Skip("random cluster graph disconnected")
	}
	r := Spectral(g, rng, Options{Dims: 4})
	dist := func(a, b int) float64 {
		var d2 float64
		for c := 0; c < r.U.Cols; c++ {
			d := r.U.At(a, c) - r.U.At(b, c)
			d2 += d * d
		}
		return math.Sqrt(d2)
	}
	var intra, inter float64
	var ni, nx int
	for trial := 0; trial < 200; trial++ {
		a, b := rng.Intn(2*n), rng.Intn(2*n)
		if a == b {
			continue
		}
		if (a < n) == (b < n) {
			intra += dist(a, b)
			ni++
		} else {
			inter += dist(a, b)
			nx++
		}
	}
	intra /= float64(ni)
	inter /= float64(nx)
	if inter < 2*intra {
		t.Fatalf("clusters not separated: intra=%v inter=%v", intra, inter)
	}
}

func TestSpectralLargeGraphUsesLanczos(t *testing.T) {
	// Above the dense cutoff (n > 200) Lanczos path must agree with dense.
	rng := rand.New(rand.NewSource(103))
	g := randomConnectedGraph(rng, 250, 400)
	r := Spectral(g, rng, Options{Dims: 6})
	// Compare eigenvalues with a dense oracle.
	vals, _ := mat.SymEig(g.NormalizedLaplacian().ToDense())
	for j := 0; j < 6; j++ {
		if math.Abs(r.Values[j]-vals[j]) > 1e-5 {
			t.Fatalf("Lanczos eigenvalue %d: %v vs dense %v", j, r.Values[j], vals[j])
		}
	}
}

func TestSpectralDimsClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	g := randomConnectedGraph(rng, 10, 10)
	r := Spectral(g, rng, Options{Dims: 100})
	if r.U.Cols != 9 {
		t.Fatalf("dims should clamp to n-1=9, got %d", r.U.Cols)
	}
}

func TestSpectralEmptyAndSingleton(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	r := Spectral(graph.New(0), rng, Options{})
	if r.U.Rows != 0 {
		t.Fatal("empty graph should give empty embedding")
	}
	r1 := Spectral(graph.New(1), rng, Options{})
	if r1.U.Rows != 1 || r1.U.Cols != 1 {
		t.Fatalf("singleton embedding %dx%d", r1.U.Rows, r1.U.Cols)
	}
}

func TestFeatureAugmented(t *testing.T) {
	spec := mat.FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	feats := mat.FromRows([][]float64{{10}, {20}, {30}})
	out := FeatureAugmented(spec, feats, 0.5)
	if out.Rows != 3 || out.Cols != 3 {
		t.Fatalf("augmented dims %dx%d", out.Rows, out.Cols)
	}
	// Feature column standardized: mean 0.
	col := out.Col(2)
	if math.Abs(mat.Mean(col)) > 1e-12 {
		t.Fatal("feature column not centered")
	}
	// Scaled by alpha relative to unit variance.
	var variance float64
	for _, x := range col {
		variance += x * x
	}
	variance /= 2 // n-1
	if math.Abs(math.Sqrt(variance)-0.5) > 1e-9 {
		t.Fatalf("feature column sd %v, want 0.5", math.Sqrt(variance))
	}
	// Nil features: clone.
	c := FeatureAugmented(spec, nil, 1)
	if !c.Equalish(spec, 0) {
		t.Fatal("nil features should clone spectral part")
	}
	// Constant feature column: sd guard, no NaN.
	constFeats := mat.FromRows([][]float64{{5}, {5}, {5}})
	cc := FeatureAugmented(spec, constFeats, 1)
	for _, x := range cc.Data {
		if math.IsNaN(x) {
			t.Fatal("NaN from constant feature column")
		}
	}
}
