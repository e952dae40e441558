// Package parallel is the shared concurrency layer of the CirSTAG pipeline:
// a bounded worker pool with deterministic work decomposition, plus seed
// splitting for forking independent RNG streams.
//
// # Determinism contract
//
// Every helper in this package guarantees that results are bit-identical for
// any worker count (including the serial workers=1 case) as long as the
// supplied closures follow one rule: a closure may only write state that is
// private to its index range. The pool only changes *when* a chunk runs,
// never *what* a chunk computes:
//
//   - For splits [0, n) into chunks whose boundaries are a pure function of
//     (n, grain) — never of the worker count — so per-chunk floating-point
//     reduction order is fixed.
//   - Grain is the one rule that sizes a chunk: a caller states what one
//     index costs, and every chunk but the last carries about the work of a
//     goroutine hand-off. A section no larger than one chunk runs on the
//     calling goroutine, so no caller keeps a serial branch of its own.
//   - Workers claim chunks off an atomic counter; since chunks touch disjoint
//     output slots, claim order is irrelevant to the result.
//   - SplitSeed/NewRNG derive statistically independent child streams from a
//     single root seed, so concurrent pipeline stages each own a private RNG
//     whose sequence does not depend on scheduling.
//
// Cross-chunk reductions (e.g. summing per-edge scores into per-node
// accumulators) must be done by the caller after the parallel section, in a
// fixed order.
//
// # Sizing
//
// The pool size defaults to GOMAXPROCS, can be pinned for a whole process
// with the CIRSTAG_WORKERS environment variable, and can be overridden
// programmatically (typically by benchmarks) with SetWorkers.
package parallel

import (
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cirstag/internal/obs"
)

// Pool metrics (recorded only while obs is enabled; the disabled path costs
// one atomic load per For/Do call and never touches the clock):
//
//   - parallel.for_calls / parallel.chunks — how many For sections ran,
//     inline ones included, and how finely they were decomposed.
//   - parallel.workers — the pool size of the most recent section that
//     left the calling goroutine.
//   - parallel.utilization_pct — per pooled For, the ratio of summed worker
//     busy time to workers × wall time; low values mean the pool is not
//     saturating cores. Inline sections are not observed: they would read
//     100% by construction.
//   - parallel.spawn_wait_us — per helper goroutine that claims a chunk, the
//     delay between pool launch and that claim (goroutine scheduling
//     latency). A helper that finds every chunk taken is not observed.
//   - parallel.do_calls — stage-overlap sections (Do).
var (
	forCalls     = obs.NewCounter("parallel.for_calls")
	forChunks    = obs.NewCounter("parallel.chunks")
	doCalls      = obs.NewCounter("parallel.do_calls")
	workersGauge = obs.NewGauge("parallel.workers")
	utilization  = obs.NewHistogram("parallel.utilization_pct", obs.LinearBuckets(10, 10, 10)...)
	spawnWaitUS  = obs.NewHistogram("parallel.spawn_wait_us", obs.ExpBuckets(1, 4, 10)...)
)

// override is the SetWorkers value; 0 means "no override".
var override atomic.Int32

// envWorkers caches the CIRSTAG_WORKERS environment override, read once at
// startup so Workers stays allocation- and syscall-free on hot paths.
var envWorkers = func() int {
	if s := os.Getenv("CIRSTAG_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 0
}()

// Workers returns the current pool size: the SetWorkers override if set,
// else CIRSTAG_WORKERS if set, else GOMAXPROCS.
func Workers() int {
	if n := override.Load(); n > 0 {
		return int(n)
	}
	if envWorkers > 0 {
		return envWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers pins the pool size for the whole process; n <= 0 restores the
// default (CIRSTAG_WORKERS / GOMAXPROCS). Safe for concurrent use; intended
// for benchmarks and the serial-vs-parallel equivalence tests.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	override.Store(int32(n))
}

// chunkWork is the least work a chunk carries, in multiply-add-sized
// operations, chosen so that a chunk costs about what handing it to another
// goroutine costs. On a 2-vCPU host, SpMV, the dense product, the
// reorthogonalization update and tanh (10 operations each) split into two
// equal chunks broke even with their serial loops at 8k–23k operations,
// where each chunk did about 10 µs of work.
const chunkWork = 1 << 13

// Grain returns the grain for a section whose every index costs cost
// multiply-add-sized operations: ⌈chunkWork/cost⌉, at least 1. A section no
// larger than one chunk is one chunk, which For runs on the calling
// goroutine.
func Grain(cost int) int {
	if cost < 1 {
		cost = 1
	}
	return (chunkWork + cost - 1) / cost
}

// For runs fn over [0, n) split into chunks of grain indices (grain >= 1;
// callers size it with Grain, or pass 1 for coarse tasks). fn(lo, hi)
// processes indices [lo, hi) and must only write state private to that
// range. Chunks run on up to Workers() goroutines, the caller's included;
// with one worker or one chunk everything runs inline on the calling
// goroutine. A panic inside fn is re-raised on the caller.
func For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		panic("parallel: For grain must be at least 1")
	}
	chunks := (n + grain - 1) / grain
	w := Workers()
	if w > chunks {
		w = chunks
	}
	rec := obs.Enabled()
	// Trace recording sits behind its own switch: when a -trace export was
	// requested, every executed chunk is recorded with the worker lane (pool
	// index) that claimed it, which is what gives the Perfetto export one
	// timeline lane per worker.
	tr := obs.TraceEnabled()
	timed := rec || tr
	if rec {
		forCalls.Inc()
		forChunks.Add(int64(chunks))
	}
	if w <= 1 {
		for c := 0; c < chunks; c++ {
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			var cs time.Time
			if tr {
				cs = time.Now()
			}
			fn(lo, hi)
			if tr {
				obs.TraceChunk(0, cs, time.Since(cs))
			}
		}
		return
	}
	var t0 time.Time
	var busyNS atomic.Int64
	if timed {
		t0 = time.Now()
	}
	if rec {
		workersGauge.Set(float64(w))
	}
	// The caller works as lane 0 beside w-1 helper goroutines and returns
	// once every chunk is done, not once every helper has run: a helper that
	// is slow to be scheduled finds no chunk left and exits, and delays
	// nothing.
	var next, done atomic.Int64
	var panicOnce sync.Once
	var panicked any
	finished := make(chan struct{})
	work := func(lane int) {
		first := rec && lane > 0
		for c := int(next.Add(1)) - 1; c < chunks; c = int(next.Add(1)) - 1 {
			if first {
				spawnWaitUS.Observe(float64(time.Since(t0)) / float64(time.Microsecond))
				first = false
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						panicOnce.Do(func() { panicked = r })
					}
					if done.Add(1) == int64(chunks) {
						close(finished)
					}
				}()
				lo := c * grain
				hi := min(lo+grain, n)
				var cs time.Time
				if timed {
					cs = time.Now()
				}
				fn(lo, hi)
				if timed {
					busy := time.Since(cs)
					if rec {
						busyNS.Add(int64(busy))
					}
					if tr {
						obs.TraceChunk(lane, cs, busy)
					}
				}
			}()
		}
	}
	for lane := 1; lane < w; lane++ {
		go work(lane)
	}
	work(0)
	<-finished
	if rec {
		if wall := time.Since(t0); wall > 0 {
			utilization.Observe(100 * float64(busyNS.Load()) / (float64(wall) * float64(w)))
		}
	}
	if panicked != nil {
		panic(panicked)
	}
}

// ForEach runs fn(i) for every i in [0, n) on the worker pool; a convenience
// wrapper over For for per-item closures. fn must only write state private to
// its index.
func ForEach(n, grain int, fn func(i int)) {
	For(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Map evaluates fn(i) for every i in [0, n) on the worker pool and returns
// the results in index order. fn must not depend on evaluation order.
func Map[T any](n, grain int, fn func(i int) T) []T {
	out := make([]T, n)
	For(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = fn(i)
		}
	})
	return out
}

// Do runs the given independent tasks concurrently and waits for all of them;
// with one worker they run serially in argument order. Used to overlap
// pipeline stages with no data dependency (e.g. the G_X and G_Y manifold
// builds). A panic inside a task is re-raised on the caller.
func Do(fns ...func()) {
	doCalls.Inc()
	if len(fns) <= 1 || Workers() <= 1 {
		for _, fn := range fns {
			fn()
		}
		return
	}
	var panicOnce sync.Once
	var panicked any
	var wg sync.WaitGroup
	for _, fn := range fns {
		wg.Add(1)
		go func(fn func()) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			fn()
		}(fn)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// SplitSeed derives the seed of child stream `stream` from a root seed using
// a splitmix64 finalizer. Distinct streams of the same root are statistically
// independent, and the mapping is a pure function — the foundation of the
// pipeline's "same Options.Seed, same Result, any worker count" guarantee.
func SplitSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*(stream+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// NewRNG returns a fresh RNG on child stream `stream` of the root seed.
// Each concurrent pipeline stage forks its own stream so its random sequence
// is independent of when (or whether) sibling stages consume randomness.
func NewRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(SplitSeed(seed, stream)))
}
