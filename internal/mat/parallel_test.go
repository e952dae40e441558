package mat

import (
	"math"
	"math/rand"
	"testing"

	"cirstag/internal/parallel"
)

// TestMulWorkerCountBitIdentical: Mul shards its rows by parallel.Grain and
// every output row is private to one chunk, so the product is bit-identical
// at 1, 2 and 4 workers, for a product inside one chunk and one spanning
// several.
func TestMulWorkerCountBitIdentical(t *testing.T) {
	defer parallel.SetWorkers(0)
	rng := rand.New(rand.NewSource(11))
	const inner, cols = 16, 12
	grain := parallel.Grain(inner * cols)
	for _, rows := range []int{grain / 2, 6*grain + 5} {
		a := randDense(rng, rows, inner)
		b := randDense(rng, inner, cols)
		parallel.SetWorkers(1)
		ref := a.Mul(b)
		for _, w := range []int{2, 4} {
			parallel.SetWorkers(w)
			got := a.Mul(b)
			for i := range ref.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(ref.Data[i]) {
					t.Fatalf("rows=%d workers=%d: element %d differs from one worker", rows, w, i)
				}
			}
		}
	}
}
