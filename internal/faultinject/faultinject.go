// Package faultinject is the build-tag-free fault-injection harness of the
// CirSTAG pipeline. Like internal/obs it is hook-based: production code calls
// the passthrough functions (Bytes, Int, Float, Slice) at designated
// injection points, and those calls are single-atomic-load no-ops unless a
// test has armed a hook for that point. No build tags, no test-only
// compilation units — the injection points ship in the production binary at
// effectively zero cost, which guarantees the tested code path is the shipped
// code path.
//
// # Usage
//
//	defer faultinject.Reset()
//	faultinject.ArmBytes(faultinject.PointCacheFrame, func(b []byte) []byte {
//	    b[len(b)/2] ^= 0x40 // bit flip in the middle of the frame
//	    return b
//	})
//	// ... run the pipeline; assert it degrades gracefully ...
//	if faultinject.Fires(faultinject.PointCacheFrame) == 0 {
//	    t.Fatal("injection point never reached")
//	}
//
// Fires counts how often each armed hook actually ran, so tests can assert
// the fault was really exercised rather than silently bypassed.
//
// # Concurrency
//
// Arming and Reset are test-time operations; the passthrough functions are
// safe for concurrent use with each other (the pipeline calls them from
// worker goroutines) but tests must not arm or reset hooks while a pipeline
// run is in flight.
package faultinject

import (
	"sync"
	"sync/atomic"
)

// Injection points. Each constant names the production call site it gates.
const (
	// PointCacheFrame intercepts the raw artifact frame read from disk in
	// cache.Store.Get, before header verification — truncation and bit flips
	// injected here must be detected and degrade to a miss.
	PointCacheFrame = "cache.read_frame"
	// PointPCGMaxIter intercepts the PCG iteration budget in solver.PCG and
	// solver.PCGBlockGuess — capping it to ~1 simulates a non-converging
	// Laplacian solve.
	PointPCGMaxIter = "solver.pcg.max_iter"
	// PointLanczosMaxIter intercepts the Krylov budget of eig.Lanczos and
	// eig.GeneralizedTopKSeeded — capping it simulates a non-converging
	// eigensolve.
	PointLanczosMaxIter = "eig.lanczos.max_iter"
	// PointGNNOutput intercepts the prediction-output matrix data in
	// timing.Model.Predict — overwriting rows with NaN simulates a diverged
	// GNN; core.Run must reject the matrix with a typed error.
	PointGNNOutput = "timing.gnn_output"
	// PointKNNDist2 intercepts each merged squared neighbor distance in
	// knn.BuildGraph before the conditioning floor — forcing 0 simulates
	// coincident embedding points (zero-distance neighborhoods).
	PointKNNDist2 = "knn.dist2"
)

// armed is the fast-path gate: production passthroughs load it once and
// return immediately while no hook is armed anywhere.
var armed atomic.Bool

var state struct {
	mu    sync.Mutex
	bytes map[string]func([]byte) []byte
	ints  map[string]func(int) int
	flts  map[string]func(float64) float64
	slcs  map[string]func([]float64)
	fires map[string]*atomic.Int64
}

func arm(point string, set func()) {
	state.mu.Lock()
	defer state.mu.Unlock()
	if state.fires == nil {
		state.fires = map[string]*atomic.Int64{}
	}
	if state.fires[point] == nil {
		state.fires[point] = &atomic.Int64{}
	}
	set()
	armed.Store(true)
}

// ArmBytes installs a hook that may mutate, truncate, or replace a byte
// slice flowing through point. The hook owns the slice it returns.
func ArmBytes(point string, f func([]byte) []byte) {
	arm(point, func() {
		if state.bytes == nil {
			state.bytes = map[string]func([]byte) []byte{}
		}
		state.bytes[point] = f
	})
}

// ArmInt installs a hook that rewrites an integer (typically an iteration
// budget) flowing through point.
func ArmInt(point string, f func(int) int) {
	arm(point, func() {
		if state.ints == nil {
			state.ints = map[string]func(int) int{}
		}
		state.ints[point] = f
	})
}

// ArmFloat installs a hook that rewrites a float64 (typically a distance)
// flowing through point.
func ArmFloat(point string, f func(float64) float64) {
	arm(point, func() {
		if state.flts == nil {
			state.flts = map[string]func(float64) float64{}
		}
		state.flts[point] = f
	})
}

// ArmSlice installs a hook that mutates a float64 slice in place (typically
// a matrix's backing data) flowing through point.
func ArmSlice(point string, f func([]float64)) {
	arm(point, func() {
		if state.slcs == nil {
			state.slcs = map[string]func([]float64){}
		}
		state.slcs[point] = f
	})
}

// Reset disarms every hook and zeroes all fire counts. Deferred by every
// fault-injection test.
func Reset() {
	state.mu.Lock()
	defer state.mu.Unlock()
	state.bytes, state.ints, state.flts, state.slcs = nil, nil, nil, nil
	state.fires = nil
	armed.Store(false)
}

// Fires reports how many times the hook armed at point has run.
func Fires(point string) int64 {
	state.mu.Lock()
	defer state.mu.Unlock()
	if c := state.fires[point]; c != nil {
		return c.Load()
	}
	return 0
}

func fired(point string) {
	state.mu.Lock()
	c := state.fires[point]
	state.mu.Unlock()
	if c != nil {
		c.Add(1)
	}
}

// Bytes passes b through the hook armed at point, if any. Production call
// sites must treat the returned slice as the authoritative value (it may be
// shorter, longer, or aliased).
func Bytes(point string, b []byte) []byte {
	if !armed.Load() {
		return b
	}
	state.mu.Lock()
	f := state.bytes[point]
	state.mu.Unlock()
	if f == nil {
		return b
	}
	fired(point)
	return f(b)
}

// Int passes v through the hook armed at point, if any.
func Int(point string, v int) int {
	if !armed.Load() {
		return v
	}
	state.mu.Lock()
	f := state.ints[point]
	state.mu.Unlock()
	if f == nil {
		return v
	}
	fired(point)
	return f(v)
}

// Float passes v through the hook armed at point, if any.
func Float(point string, v float64) float64 {
	if !armed.Load() {
		return v
	}
	state.mu.Lock()
	f := state.flts[point]
	state.mu.Unlock()
	if f == nil {
		return v
	}
	fired(point)
	return f(v)
}

// Slice passes data through the hook armed at point, if any; the hook
// mutates it in place.
func Slice(point string, data []float64) {
	if !armed.Load() {
		return
	}
	state.mu.Lock()
	f := state.slcs[point]
	state.mu.Unlock()
	if f == nil {
		return
	}
	fired(point)
	f(data)
}
