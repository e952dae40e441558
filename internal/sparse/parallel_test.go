package sparse

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"cirstag/internal/mat"
	"cirstag/internal/parallel"
)

// TestMulVecShardedBitwiseEqualsSerial exercises a matrix big enough to span
// several row chunks of its Grain and requires the row-sharded SpMV to match
// the serial product bit-for-bit at several worker counts (row shards never
// split a row's accumulation, so there is no legal difference).
func TestMulVecShardedBitwiseEqualsSerial(t *testing.T) {
	defer parallel.SetWorkers(0)
	rng := rand.New(rand.NewSource(3))
	rows, cols := 800, 600
	m := randCSR(rng, rows, cols, 1<<15)
	if g := parallel.Grain(len(m.Val) / rows); 2*g > rows {
		t.Fatalf("test matrix spans fewer than two chunks of %d rows: nnz=%d", g, len(m.Val))
	}
	x := make(mat.Vec, cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}

	parallel.SetWorkers(1)
	ref := m.MulVec(x)
	for _, workers := range []int{2, 8} {
		parallel.SetWorkers(workers)
		got := m.MulVec(x)
		for i := range ref {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("workers=%d: y[%d] = %x, serial gave %x",
					workers, i, math.Float64bits(got[i]), math.Float64bits(ref[i]))
			}
		}
	}
}

// TestMulDenseShardedBitwiseEqualsSerial does the same for the dense product.
func TestMulDenseShardedBitwiseEqualsSerial(t *testing.T) {
	defer parallel.SetWorkers(0)
	rng := rand.New(rand.NewSource(4))
	m := randCSR(rng, 400, 300, 1<<14)
	b := mat.NewDense(300, 8)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	if g := parallel.Grain(b.Cols * len(m.Val) / m.Rows); 2*g > m.Rows {
		t.Fatalf("test product spans fewer than two chunks of %d rows", g)
	}

	parallel.SetWorkers(1)
	ref := m.MulDense(b)
	for _, workers := range []int{2, 8} {
		parallel.SetWorkers(workers)
		got := m.MulDense(b)
		for i := range ref.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(ref.Data[i]) {
				t.Fatalf("workers=%d: element %d differs from serial product", workers, i)
			}
		}
	}
}

func BenchmarkCSRMulVec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := randCSR(rng, 20000, 20000, 1<<19)
	x := make(mat.Vec, 20000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make(mat.Vec, 20000)
	b.Run("serial", func(b *testing.B) {
		parallel.SetWorkers(1)
		defer parallel.SetWorkers(0)
		for i := 0; i < b.N; i++ {
			m.MulVecTo(y, x)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		parallel.SetWorkers(1)
		t0 := time.Now()
		m.MulVecTo(y, x)
		serial := time.Since(t0).Seconds()
		parallel.SetWorkers(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.MulVecTo(y, x)
		}
		b.StopTimer()
		t0 = time.Now()
		m.MulVecTo(y, x)
		par := time.Since(t0).Seconds()
		if par > 0 {
			b.ReportMetric(serial/par, "speedup")
		}
		b.ReportMetric(float64(parallel.Workers()), "workers")
	})
}
