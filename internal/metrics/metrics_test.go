package metrics

import (
	"math"
	"math/rand"
	"testing"

	"cirstag/internal/mat"
)

func TestR2PerfectAndBaseline(t *testing.T) {
	y := mat.Vec{1, 2, 3, 4}
	if R2(y, y) != 1 {
		t.Fatal("perfect prediction should give R²=1")
	}
	// Predicting the mean gives R²=0.
	pred := mat.Vec{2.5, 2.5, 2.5, 2.5}
	if math.Abs(R2(pred, y)) > 1e-12 {
		t.Fatal("mean prediction should give R²=0")
	}
	// Constant target conventions.
	if R2(mat.Vec{5, 5}, mat.Vec{5, 5}) != 1 {
		t.Fatal("exact constant should be 1")
	}
	if R2(mat.Vec{5, 6}, mat.Vec{5, 5}) != 0 {
		t.Fatal("wrong constant should be 0")
	}
	if R2(mat.Vec{}, mat.Vec{}) != 0 {
		t.Fatal("empty should be 0")
	}
}

func TestCosineSimilarity(t *testing.T) {
	if CosineSimilarity(mat.Vec{1, 0}, mat.Vec{0, 1}) != 0 {
		t.Fatal("orthogonal should be 0")
	}
	if math.Abs(CosineSimilarity(mat.Vec{2, 0}, mat.Vec{7, 0})-1) > 1e-12 {
		t.Fatal("parallel should be 1")
	}
	if math.Abs(CosineSimilarity(mat.Vec{1, 1}, mat.Vec{-1, -1})+1) > 1e-12 {
		t.Fatal("antiparallel should be -1")
	}
	if CosineSimilarity(mat.Vec{0, 0}, mat.Vec{1, 2}) != 0 {
		t.Fatal("zero vector should give 0")
	}
}

func TestMeanRowCosine(t *testing.T) {
	a := mat.FromRows([][]float64{{1, 0}, {0, 2}})
	b := mat.FromRows([][]float64{{2, 0}, {0, -3}})
	got := MeanRowCosine(a, b)
	if math.Abs(got-0) > 1e-12 { // (1 + (-1))/2
		t.Fatalf("MeanRowCosine = %v, want 0", got)
	}
	if MeanRowCosine(a, a) != 1 {
		t.Fatal("identical matrices should give 1")
	}
}

func TestF1MacroHandComputed(t *testing.T) {
	truth := []int{0, 0, 1, 1, 2, 2}
	pred := []int{0, 1, 1, 1, 2, 0}
	// class 0: tp=1 fp=1 fn=1 → F1 = 2/(2+1+1) = 0.5
	// class 1: tp=2 fp=1 fn=0 → F1 = 4/(4+1) = 0.8
	// class 2: tp=1 fp=0 fn=1 → F1 = 2/(2+1) ≈ 0.6667
	want := (0.5 + 0.8 + 2.0/3) / 3
	if got := F1Macro(pred, truth, 3); math.Abs(got-want) > 1e-12 {
		t.Fatalf("F1Macro = %v, want %v", got, want)
	}
}

func TestF1MacroPerfectAndMasked(t *testing.T) {
	truth := []int{0, 1, 2, -1}
	pred := []int{0, 1, 2, 0}
	if F1Macro(pred, truth, 3) != 1 {
		t.Fatal("perfect prediction should be 1")
	}
	// Unseen class does not drag the average down.
	if F1Macro([]int{0, 0}, []int{0, 0}, 5) != 1 {
		t.Fatal("unseen classes should be skipped")
	}
}

func TestAccuracy(t *testing.T) {
	if Accuracy([]int{1, 2, 3}, []int{1, 0, 3}) != 2.0/3 {
		t.Fatal("accuracy wrong")
	}
	if Accuracy([]int{1}, []int{-1}) != 0 {
		t.Fatal("all-masked accuracy should be 0")
	}
}

func TestPearsonAndSpearman(t *testing.T) {
	x := mat.Vec{1, 2, 3, 4, 5}
	y := mat.Vec{2, 4, 6, 8, 10}
	if math.Abs(Pearson(x, y)-1) > 1e-12 {
		t.Fatal("linear relation should give Pearson 1")
	}
	// Monotone nonlinear: Spearman 1, Pearson < 1.
	z := mat.Vec{1, 8, 27, 64, 125}
	if math.Abs(Spearman(x, z)-1) > 1e-12 {
		t.Fatal("monotone relation should give Spearman 1")
	}
	if Pearson(x, z) >= 1 {
		t.Fatal("Pearson should be below 1 for nonlinear monotone data")
	}
	// Anticorrelation.
	rev := mat.Vec{5, 4, 3, 2, 1}
	if math.Abs(Spearman(x, rev)+1) > 1e-12 {
		t.Fatal("reversed order should give Spearman -1")
	}
}

func TestSpearmanTies(t *testing.T) {
	x := mat.Vec{1, 1, 2, 2}
	y := mat.Vec{1, 1, 2, 2}
	if math.Abs(Spearman(x, y)-1) > 1e-12 {
		t.Fatal("identical tied data should give 1")
	}
}

func TestPearsonRandomBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(140))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		x := make(mat.Vec, n)
		y := make(mat.Vec, n)
		for i := 0; i < n; i++ {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		p := Pearson(x, y)
		if p < -1-1e-12 || p > 1+1e-12 {
			t.Fatalf("Pearson out of bounds: %v", p)
		}
		s := Spearman(x, y)
		if s < -1-1e-12 || s > 1+1e-12 {
			t.Fatalf("Spearman out of bounds: %v", s)
		}
	}
}
