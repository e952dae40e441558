package revnet

import (
	"math/rand"
	"testing"

	"cirstag/internal/circuit"
	"cirstag/internal/metrics"
	"cirstag/internal/perturb"
)

func TestGenerateDesignStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(150))
	d := GenerateDesign(2, 4, rng)
	if d.NumGates() < 100 {
		t.Fatalf("design too small: %d gates", d.NumGates())
	}
	if !d.Graph.IsConnected() {
		t.Fatal("design disconnected")
	}
	if len(d.Labels) != d.NumGates() || len(d.Gates) != d.NumGates() {
		t.Fatal("label/gate array sizes wrong")
	}
	// Every class present.
	seen := make([]bool, NumBlockTypes)
	for _, l := range d.Labels {
		if l < 0 || l >= int(NumBlockTypes) {
			t.Fatalf("label %d out of range", l)
		}
		seen[l] = true
	}
	for c, ok := range seen {
		if !ok {
			t.Fatalf("class %v missing from design", BlockType(c))
		}
	}
	// 12 blocks → 12 port groups.
	if len(d.Ports) != 2*int(NumBlockTypes) {
		t.Fatalf("port groups %d", len(d.Ports))
	}
}

func TestGenerateDesignDeterministic(t *testing.T) {
	d1 := GenerateDesign(1, 3, rand.New(rand.NewSource(7)))
	d2 := GenerateDesign(1, 3, rand.New(rand.NewSource(7)))
	if d1.NumGates() != d2.NumGates() || d1.Graph.M() != d2.Graph.M() {
		t.Fatal("generation not deterministic")
	}
	for i := range d1.Gates {
		if d1.Gates[i] != d2.Gates[i] {
			t.Fatal("gate types differ")
		}
	}
}

func TestFeaturesShapeAndHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	d := GenerateDesign(1, 3, rng)
	f := d.Features()
	tc := circuit.NumGateTypes
	if f.Rows != d.NumGates() || f.Cols != 2*tc+1 {
		t.Fatalf("feature shape %dx%d", f.Rows, f.Cols)
	}
	for v := 0; v < f.Rows; v++ {
		// One-hot part sums to 1.
		var oneHot, hist float64
		for c := 0; c < tc; c++ {
			oneHot += f.At(v, c)
		}
		for c := tc + 1; c < f.Cols; c++ {
			hist += f.At(v, c)
		}
		if oneHot != 1 {
			t.Fatal("one-hot sum wrong")
		}
		// Histogram sums to 1 for any node with neighbours.
		if d.Graph.Degree(v) > 0 && (hist < 0.999 || hist > 1.001) {
			t.Fatalf("neighbour histogram sums to %v", hist)
		}
	}
}

func TestBlockTypeString(t *testing.T) {
	if BlockAdder.String() != "adder" || BlockShifter.String() != "shifter" {
		t.Fatal("block names wrong")
	}
	if BlockType(99).String() == "" {
		t.Fatal("out-of-range name empty")
	}
}

func TestClassifierLearnsSubCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(152))
	d := GenerateDesign(2, 4, rng)
	c := TrainClassifier(d, ClassifierConfig{Epochs: 150, Seed: 1})
	inf := c.Predict(nil)
	f1 := c.TestF1(inf)
	acc := c.OverallAccuracy(inf)
	// The reference model reports 98.87% accuracy; our synthetic blocks are
	// highly separable, so require strong but not perfect scores.
	if f1 < 0.85 {
		t.Fatalf("test macro-F1 = %v, want >= 0.85", f1)
	}
	if acc < 0.9 {
		t.Fatalf("overall accuracy = %v, want >= 0.9", acc)
	}
}

func TestClassifierEmbeddingsStableUnderNoPerturbation(t *testing.T) {
	rng := rand.New(rand.NewSource(153))
	d := GenerateDesign(1, 4, rng)
	c := TrainClassifier(d, ClassifierConfig{Epochs: 100, Seed: 2})
	a := c.Predict(nil)
	b := c.Predict(d.Graph.Clone())
	cos := metrics.MeanRowCosine(a.Embeddings, b.Embeddings)
	if cos < 0.9999 {
		t.Fatalf("identical graph should give identical embeddings, cosine %v", cos)
	}
}

func TestClassifierRespondsToTopologyPerturbation(t *testing.T) {
	rng := rand.New(rand.NewSource(154))
	d := GenerateDesign(2, 4, rng)
	c := TrainClassifier(d, ClassifierConfig{Epochs: 150, Seed: 3})
	base := c.Predict(nil)
	// Rewire one edge at each of a random third of the nodes within its
	// 2-hop neighbourhood: embeddings must move and F1 must not improve.
	nodes := rng.Perm(d.Graph.N())[:d.Graph.N()/3]
	rewired := perturb.RewireNodesLocal(d.Graph, nodes, 1, rng)
	inf := c.Predict(rewired)
	cos := metrics.MeanRowCosine(base.Embeddings, inf.Embeddings)
	if cos > 0.999 {
		t.Fatalf("massive rewiring left embeddings unchanged (cos=%v)", cos)
	}
	if c.TestF1(inf) > c.TestF1(base)+1e-9 {
		t.Fatal("rewiring should not improve F1")
	}
}
