package mat

import (
	"math"
	"math/rand"
	"testing"
)

func TestSymEigSmall(t *testing.T) {
	// Eigenvalues of [[2,1],[1,2]] are 1 and 3.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs := SymEig(a)
	if !almostEq(vals[0], 1, 1e-10) || !almostEq(vals[1], 3, 1e-10) {
		t.Fatalf("eigenvalues %v", vals)
	}
	// Check A v = λ v for each column.
	for j := 0; j < 2; j++ {
		v := vecs.Col(j)
		av := a.MulVec(v)
		lv := v.Clone()
		Scale(vals[j], lv)
		if MaxAbsDiff(av, lv) > 1e-10 {
			t.Fatalf("eigenpair %d fails residual check", j)
		}
	}
}

func TestSymEigRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 20
	// Build symmetric A = B + Bᵀ.
	b := randDense(rng, n, n)
	a := b.Clone()
	a.Add(b.T())
	vals, vecs := SymEig(a)
	// Ascending order.
	for i := 1; i < n; i++ {
		if vals[i] < vals[i-1]-1e-12 {
			t.Fatal("eigenvalues not ascending")
		}
	}
	// Orthonormal eigenvectors.
	if !vecs.MulT(vecs).Equalish(Eye(n), 1e-8) {
		t.Fatal("eigenvectors not orthonormal")
	}
	// Residuals.
	for j := 0; j < n; j++ {
		v := vecs.Col(j)
		av := a.MulVec(v)
		lv := v.Clone()
		Scale(vals[j], lv)
		if MaxAbsDiff(av, lv) > 1e-7 {
			t.Fatalf("residual too large for eigenpair %d", j)
		}
	}
	// Trace preserved.
	var tr, sum float64
	for i := 0; i < n; i++ {
		tr += a.At(i, i)
	}
	sum = Sum(vals)
	if !almostEq(tr, sum, 1e-8*math.Max(1, math.Abs(tr))) {
		t.Fatalf("trace %v != eigenvalue sum %v", tr, sum)
	}
}

func TestTridiagEigMatchesSymEig(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 25
	d := make(Vec, n)
	e := make(Vec, n-1)
	for i := range d {
		d[i] = rng.NormFloat64() * 3
	}
	for i := range e {
		e[i] = rng.NormFloat64()
	}
	// Dense oracle.
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, d[i])
		if i < n-1 {
			a.Set(i, i+1, e[i])
			a.Set(i+1, i, e[i])
		}
	}
	wantVals, _ := SymEig(a)
	gotVals, gotVecs := TridiagEig(d, e)
	if MaxAbsDiff(gotVals, wantVals) > 1e-8 {
		t.Fatalf("tridiag eigenvalues differ from dense oracle by %v", MaxAbsDiff(gotVals, wantVals))
	}
	// Residual check against the tridiagonal matrix itself.
	for j := 0; j < n; j++ {
		v := gotVecs.Col(j)
		av := a.MulVec(v)
		lv := v.Clone()
		Scale(gotVals[j], lv)
		if MaxAbsDiff(av, lv) > 1e-8 {
			t.Fatalf("tridiag eigenpair %d residual too large", j)
		}
	}
}

func TestTridiagEigSingleton(t *testing.T) {
	vals, vecs := TridiagEig(Vec{5}, Vec{})
	if vals[0] != 5 || vecs.At(0, 0) != 1 {
		t.Fatal("singleton tridiag failed")
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n := 12
	b := randDense(rng, n, n)
	// SPD: A = BᵀB + n·I.
	a := b.MulT(b)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// L·Lᵀ == A.
	if !l.Mul(l.T()).Equalish(a, 1e-8) {
		t.Fatal("LLᵀ != A")
	}
	xTrue := make(Vec, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	rhs := a.MulVec(xTrue)
	x := CholSolve(l, rhs)
	if MaxAbsDiff(x, xTrue) > 1e-8 {
		t.Fatal("CholSolve inaccurate")
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected ErrNotPositiveDefinite")
	}
}

// log det of an SPD matrix two ways: 2·Σ log L_ii from the Cholesky factor
// and Σ log λ_i from SymEig.
func TestLogDetSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := 10
	b := randDense(rng, n, n)
	a := b.MulT(b)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+1)
	}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	var fromChol, fromEig float64
	for i := 0; i < n; i++ {
		fromChol += 2 * math.Log(l.At(i, i))
	}
	vals, _ := SymEig(a)
	for _, v := range vals {
		fromEig += math.Log(v)
	}
	if !almostEq(fromChol, fromEig, 1e-9*math.Abs(fromEig)) {
		t.Fatalf("log det: Cholesky %v, SymEig %v", fromChol, fromEig)
	}
}
