package parallel

import (
	"sync/atomic"
	"testing"

	"cirstag/internal/obs"
)

func TestForCoversAllIndicesOnce(t *testing.T) {
	defer SetWorkers(0)
	for _, w := range []int{1, 2, 7} {
		SetWorkers(w)
		for _, n := range []int{0, 1, 2, 127, 128, 129, 1000} {
			for _, grain := range []int{1, 8, Grain(100)} {
				hits := make([]int32, n)
				For(n, grain, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d visited %d times", w, n, grain, i, h)
					}
				}
			}
		}
	}
}

func TestForChunkBoundariesIndependentOfWorkers(t *testing.T) {
	// The chunk set (lo, hi pairs) must be a pure function of (n, grain):
	// that is what allows per-chunk floating-point reductions to stay
	// bit-identical across worker counts.
	defer SetWorkers(0)
	collect := func(w, n, grain int) map[[2]int]bool {
		SetWorkers(w)
		out := make(map[[2]int]bool)
		lock := make(chan struct{}, 1)
		lock <- struct{}{}
		For(n, grain, func(lo, hi int) {
			<-lock
			out[[2]int{lo, hi}] = true
			lock <- struct{}{}
		})
		return out
	}
	for _, n := range []int{5, 100, 1000} {
		for _, grain := range []int{1, 7, Grain(1000)} {
			a := collect(1, n, grain)
			b := collect(5, n, grain)
			if len(a) != len(b) {
				t.Fatalf("n=%d grain=%d: %d chunks serial vs %d parallel", n, grain, len(a), len(b))
			}
			for k := range a {
				if !b[k] {
					t.Fatalf("n=%d grain=%d: chunk %v missing under 5 workers", n, grain, k)
				}
			}
		}
	}
}

// TestGrainOneChunkSection: a section whose total work n·cost is at most one
// chunk's is a single chunk over (0, n) at any worker count, which For runs
// on the calling goroutine.
func TestGrainOneChunkSection(t *testing.T) {
	defer SetWorkers(0)
	if Grain(1) != chunkWork || Grain(chunkWork) != 1 || Grain(2*chunkWork) != 1 || Grain(0) != chunkWork {
		t.Fatalf("Grain(1, W, 2W, 0) = %d, %d, %d, %d", Grain(1), Grain(chunkWork), Grain(2*chunkWork), Grain(0))
	}
	for _, w := range []int{1, 4} {
		SetWorkers(w)
		for _, c := range []int{1, 3, 10, 1000, chunkWork} {
			n := chunkWork / c
			var calls [][2]int
			For(n, Grain(c), func(lo, hi int) { calls = append(calls, [2]int{lo, hi}) })
			if len(calls) != 1 || calls[0] != [2]int{0, n} {
				t.Fatalf("workers=%d cost=%d n=%d: chunks %v, want one (0, %d)", w, c, n, calls, n)
			}
		}
	}
}

func TestForRejectsZeroGrain(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("For with grain 0 did not panic")
		}
	}()
	For(10, 0, func(lo, hi int) {})
}

func TestMapOrder(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	out := Map(1000, 3, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestDoRunsAll(t *testing.T) {
	defer SetWorkers(0)
	for _, w := range []int{1, 4} {
		SetWorkers(w)
		var a, b, c atomic.Int32
		Do(func() { a.Add(1) }, func() { b.Add(1) }, func() { c.Add(1) })
		if a.Load() != 1 || b.Load() != 1 || c.Load() != 1 {
			t.Fatalf("workers=%d: tasks ran %d/%d/%d times", w, a.Load(), b.Load(), c.Load())
		}
	}
}

func TestForPanicPropagates(t *testing.T) {
	defer SetWorkers(0)
	for _, w := range []int{1, 4} {
		SetWorkers(w)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("workers=%d: panic swallowed", w)
				}
			}()
			For(100, 1, func(lo, hi int) {
				if lo == 42 {
					panic("boom")
				}
			})
		}()
	}
}

func TestSetWorkersOverride(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", Workers())
	}
	SetWorkers(0)
	if Workers() < 1 {
		t.Fatalf("Workers() = %d after reset", Workers())
	}
}

func TestSplitSeedStreamsDiffer(t *testing.T) {
	seen := make(map[int64]uint64)
	for s := uint64(0); s < 1000; s++ {
		v := SplitSeed(12345, s)
		if prev, dup := seen[v]; dup {
			t.Fatalf("streams %d and %d collide", prev, s)
		}
		seen[v] = s
	}
	// Pure function: same inputs, same seed.
	if SplitSeed(7, 3) != SplitSeed(7, 3) {
		t.Fatal("SplitSeed not deterministic")
	}
	// Root seeds separate streams too.
	if SplitSeed(1, 0) == SplitSeed(2, 0) {
		t.Fatal("distinct roots collide on stream 0")
	}
}

func TestNewRNGIndependentStreams(t *testing.T) {
	a := NewRNG(99, 0)
	b := NewRNG(99, 1)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams 0 and 1 agree on %d/64 draws", same)
	}
	// Re-forking the same stream replays the same sequence.
	c, d := NewRNG(99, 5), NewRNG(99, 5)
	for i := 0; i < 64; i++ {
		if c.Int63() != d.Int63() {
			t.Fatal("same stream must replay identically")
		}
	}
}

// TestForRecordsChunkTraceEvents: with tracing on, every executed chunk lands
// in the trace buffer tagged with the worker lane that claimed it, and lanes
// stay within the pool size — this is what the Perfetto export renders as one
// timeline row per worker.
func TestForRecordsChunkTraceEvents(t *testing.T) {
	defer SetWorkers(0)
	defer func() {
		obs.DisableTrace()
		obs.Reset()
	}()

	for _, w := range []int{1, 3} {
		SetWorkers(w)
		obs.Reset()
		obs.EnableTrace()
		const n, grain = 40, 5 // 8 chunks
		var total atomic.Int64
		For(n, grain, func(lo, hi int) {
			total.Add(int64(hi - lo))
		})
		chunks, _ := obs.TraceSnapshot()
		if total.Load() != n {
			t.Fatalf("w=%d: covered %d indices, want %d", w, total.Load(), n)
		}
		if len(chunks) != 8 {
			t.Fatalf("w=%d: recorded %d chunk events, want 8", w, len(chunks))
		}
		for _, c := range chunks {
			if c.Worker < 0 || c.Worker >= w {
				t.Fatalf("w=%d: chunk on worker lane %d, want [0,%d)", w, c.Worker, w)
			}
			if c.Dur < 0 || c.Start.IsZero() {
				t.Fatalf("w=%d: chunk event missing timing: %+v", w, c)
			}
		}
	}

	// Tracing off: the hooks must leave nothing behind.
	obs.DisableTrace()
	obs.Reset()
	For(40, 5, func(lo, hi int) {})
	if chunks, _ := obs.TraceSnapshot(); len(chunks) != 0 {
		t.Fatalf("trace disabled but %d chunk events recorded", len(chunks))
	}
}
