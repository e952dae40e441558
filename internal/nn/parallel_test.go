package nn

import (
	"math"
	"math/rand"
	"testing"

	"cirstag/internal/mat"
	"cirstag/internal/parallel"
)

// TestTanhWorkerCountBitIdentical: the elementwise tanh shards by
// parallel.Grain(tanhCost), so its output is bit-identical at 1, 2 and 4
// workers, for an input inside one chunk and one spanning several.
func TestTanhWorkerCountBitIdentical(t *testing.T) {
	defer parallel.SetWorkers(0)
	rng := rand.New(rand.NewSource(12))
	const cols = 16
	grain := parallel.Grain(tanhCost)
	for _, rows := range []int{grain / cols / 2, 5*grain/cols + 3} {
		x := mat.NewDense(rows, cols)
		for i := range x.Data {
			x.Data[i] = 3 * rng.NormFloat64()
		}
		parallel.SetWorkers(1)
		ref := (&Tanh{}).Forward(x)
		for _, w := range []int{2, 4} {
			parallel.SetWorkers(w)
			got := (&Tanh{}).Forward(x)
			for i := range ref.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(ref.Data[i]) {
					t.Fatalf("rows=%d workers=%d: element %d differs from one worker", rows, w, i)
				}
			}
		}
	}
}
