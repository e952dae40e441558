package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDotBasic(t *testing.T) {
	v := Vec{1, 2, 3}
	w := Vec{4, 5, 6}
	if got := Dot(v, w); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot(Vec{1}, Vec{1, 2})
}

func TestNorm2(t *testing.T) {
	if got := Norm2(Vec{3, 4}); !almostEq(got, 5, 1e-12) {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := Norm2(Vec{}); got != 0 {
		t.Fatalf("Norm2(empty) = %v, want 0", got)
	}
	if got := Norm2(Vec{0, 0, 0}); got != 0 {
		t.Fatalf("Norm2(zeros) = %v, want 0", got)
	}
}

func TestNorm2OverflowSafe(t *testing.T) {
	big := 1e200
	got := Norm2(Vec{big, big})
	want := big * math.Sqrt2
	if math.IsInf(got, 0) || !almostEq(got/want, 1, 1e-12) {
		t.Fatalf("Norm2 overflow-unsafe: got %v want %v", got, want)
	}
}

func TestAxpyScale(t *testing.T) {
	v := Vec{1, 2}
	w := Vec{10, 20}
	Axpy(2, v, w)
	if w[0] != 12 || w[1] != 24 {
		t.Fatalf("Axpy result %v", w)
	}
	Scale(0.5, w)
	if w[0] != 6 || w[1] != 12 {
		t.Fatalf("Scale result %v", w)
	}
}

func TestNormalize(t *testing.T) {
	v := Vec{3, 4}
	n := Normalize(v)
	if !almostEq(n, 5, 1e-12) || !almostEq(Norm2(v), 1, 1e-12) {
		t.Fatalf("Normalize: n=%v v=%v", n, v)
	}
	z := Vec{0, 0}
	if Normalize(z) != 0 {
		t.Fatal("Normalize(zero) should return 0")
	}
}

func TestSumMeanSub(t *testing.T) {
	v := Vec{1, 2, 3, 4}
	if Sum(v) != 10 || Mean(v) != 2.5 {
		t.Fatalf("Sum/Mean wrong: %v %v", Sum(v), Mean(v))
	}
	if Mean(Vec{}) != 0 {
		t.Fatal("Mean(empty) != 0")
	}
}

// Property: Cauchy-Schwarz |<v,w>| <= ||v|| ||w||.
func TestCauchySchwarzProperty(t *testing.T) {
	f := func(a, b [8]float64) bool {
		v, w := make(Vec, 8), make(Vec, 8)
		for i := range a {
			// Clamp quick's extreme values to keep the inequality meaningful
			// in floating point.
			v[i] = math.Mod(a[i], 1e6)
			w[i] = math.Mod(b[i], 1e6)
			if math.IsNaN(v[i]) {
				v[i] = 0
			}
			if math.IsNaN(w[i]) {
				w[i] = 0
			}
		}
		lhs := math.Abs(Dot(v, w))
		rhs := Norm2(v) * Norm2(w)
		return lhs <= rhs*(1+1e-10)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle inequality ||v+w|| <= ||v|| + ||w||.
func TestTriangleInequalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(20)
		v, w := make(Vec, n), make(Vec, n)
		for i := 0; i < n; i++ {
			v[i] = rng.NormFloat64() * 100
			w[i] = rng.NormFloat64() * 100
		}
		s := v.Clone()
		Axpy(1, w, s)
		if Norm2(s) > Norm2(v)+Norm2(w)+1e-9 {
			t.Fatalf("triangle inequality violated: %v > %v + %v", Norm2(s), Norm2(v), Norm2(w))
		}
	}
}

func TestMaxAbsDiffAndNormInf(t *testing.T) {
	if got := MaxAbsDiff(Vec{1, 2, 3}, Vec{1, 5, 2}); got != 3 {
		t.Fatalf("MaxAbsDiff = %v", got)
	}
	if got := NormInf(Vec{-7, 3}); got != 7 {
		t.Fatalf("NormInf = %v", got)
	}
}
