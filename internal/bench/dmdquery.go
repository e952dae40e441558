package bench

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"cirstag/internal/circuit"
	"cirstag/internal/core"
	"cirstag/internal/graph"
	"cirstag/internal/solver"
)

// DMD-query benchmark engine: builds synthetic-circuit manifold pairs of a
// target pin count and measures batched distance-mapping-distortion queries
// through the sketch-backed and exact resistance engines. Root-level
// benchmarks (BenchmarkDMDQuery, BenchmarkLargeResistanceEngine) and the
// scaling entries of the run-history ledger are thin wrappers around these.

// SyntheticManifoldPair builds an (input, output) manifold pair of roughly
// targetPins nodes: G_X is the pin graph of a generated circuit sized to the
// target, and G_Y shares its topology with lognormally perturbed edge
// weights — the structure that embedding drift produces, at none of the cost
// of a GNN forward pass. Deterministic per (targetPins, seed).
func SyntheticManifoldPair(targetPins int, seed int64) (*graph.Graph, *graph.Graph) {
	gx := syntheticPinGraph(targetPins, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	gy := graph.New(gx.N())
	for _, e := range gx.Edges() {
		gy.AddEdge(e.U, e.V, e.W*math.Exp(0.3*rng.NormFloat64()))
	}
	return gx, gy
}

// syntheticPinGraph generates a circuit whose pin graph lands near the
// requested node count. Each 2-input gate contributes three pins, so
// Layers·Width ≈ targetPins/3 up to primary I/O.
func syntheticPinGraph(targetPins int, seed int64) *graph.Graph {
	return syntheticNetlist(targetPins, seed).PinGraph()
}

func syntheticNetlist(targetPins int, seed int64) *circuit.Netlist {
	layers := 12
	width := targetPins / (3 * layers)
	if width < 4 {
		width = 4
	}
	spec := circuit.Spec{
		Name: "dmdquery", Inputs: 32, Outputs: 24,
		Layers: layers, Width: width, LocalBias: 0.65, WireCap: 1.2,
	}
	return circuit.Generate(spec, rand.New(rand.NewSource(seed)))
}

// RandomPairs draws count node pairs (p ≠ q) from [0, n), deterministically
// per seed.
func RandomPairs(n, count int, seed int64) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][2]int, count)
	for i := range out {
		p := rng.Intn(n)
		q := rng.Intn(n)
		for q == p {
			q = rng.Intn(n)
		}
		out[i] = [2]int{p, q}
	}
	return out
}

// QueryBatch runs every pair through cal.DMD, returning the wall time and
// the number of non-finite answers (which must be zero — the clamp contract).
func QueryBatch(cal *core.DMDCalculator, pairs [][2]int) (seconds float64, nonFinite int) {
	start := time.Now()
	for _, pq := range pairs {
		if d := cal.DMD(pq[0], pq[1]); math.IsNaN(d) || math.IsInf(d, 0) {
			nonFinite++
		}
	}
	return time.Since(start).Seconds(), nonFinite
}

// ResistanceEngineReport summarizes one sketch-vs-exact acceptance run.
type ResistanceEngineReport struct {
	Nodes, Edges int
	Pairs        int     // batch size answered by the sketch engine
	Eps          float64 // sketch error target
	BuildSeconds float64 // sketch construction, both manifolds
	QuerySeconds float64 // sketch-backed batch wall time
	ExactSampled int     // pairs re-answered exactly for timing + accuracy
	ExactSeconds float64 // exact wall time over the sample
	// Speedup extrapolates the exact engine's per-pair cost over the full
	// batch and divides by the sketch batch time (build excluded: the sketch
	// amortizes across every query of a session, the acceptance figure is
	// query throughput).
	Speedup   float64
	MaxRelErr float64 // worst |sketch − exact| / exact over the sample
	NonFinite int     // non-finite sketch answers (must be 0)
}

// RunResistanceEngine executes the near-linear-engine acceptance protocol on
// a targetPins-node synthetic pair: build the sketch-backed calculator, time
// a pairs-sized DMD batch, then re-answer an evenly spaced exactSample of the
// batch through the exact engine for the speedup extrapolation and the
// relative-error bound.
func RunResistanceEngine(targetPins, pairs, exactSample int, eps float64, seed int64) ResistanceEngineReport {
	gx, gy := SyntheticManifoldPair(targetPins, seed)
	batch := RandomPairs(gx.N(), pairs, seed+2)

	buildStart := time.Now()
	// The synthetic pair is a pin graph (expander-like); Jacobi beats the
	// kNN-manifold-tuned tree-preconditioner default there by orders of
	// magnitude in sketch-build time.
	approx := core.NewDMDCalculatorOpts(gx, gy, core.DMDOptions{
		Approx: true, Eps: eps, Seed: seed,
		Solver: solver.Options{Tol: 1e-4, Precond: solver.PrecondJacobi},
	})
	rep := ResistanceEngineReport{
		Nodes: gx.N(), Edges: gx.M(), Pairs: pairs, Eps: eps,
		BuildSeconds: time.Since(buildStart).Seconds(),
	}
	rep.QuerySeconds, rep.NonFinite = QueryBatch(approx, batch)

	if exactSample > pairs {
		exactSample = pairs
	}
	if exactSample < 1 {
		exactSample = 1
	}
	exact := core.NewDMDCalculatorOpts(gx, gy, core.DMDOptions{})
	step := pairs / exactSample
	if step < 1 {
		step = 1
	}
	exactStart := time.Now()
	type sampled struct {
		pq [2]int
		de float64
	}
	var samples []sampled
	for i := 0; i < pairs && len(samples) < exactSample; i += step {
		pq := batch[i]
		samples = append(samples, sampled{pq, exact.DMD(pq[0], pq[1])})
	}
	rep.ExactSeconds = time.Since(exactStart).Seconds()
	rep.ExactSampled = len(samples)

	for _, s := range samples {
		da := approx.DMD(s.pq[0], s.pq[1])
		if s.de != 0 {
			if rel := math.Abs(da-s.de) / s.de; rel > rep.MaxRelErr {
				rep.MaxRelErr = rel
			}
		}
	}
	if rep.QuerySeconds > 0 && rep.ExactSampled > 0 {
		perPair := rep.ExactSeconds / float64(rep.ExactSampled)
		rep.Speedup = perPair * float64(rep.Pairs) / rep.QuerySeconds
	}
	return rep
}

// FormatResistanceEngine renders one acceptance run as a readable block
// (cmd/experiments -exp dmd).
func FormatResistanceEngine(r ResistanceEngineReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Near-linear resistance engine (n=%d, m=%d, eps=%.2f)\n", r.Nodes, r.Edges, r.Eps)
	fmt.Fprintf(&b, "  sketch build            %10.2fs (both manifolds)\n", r.BuildSeconds)
	fmt.Fprintf(&b, "  sketch batch            %10.2fms for %d DMD pairs (%.1fus/pair)\n",
		r.QuerySeconds*1e3, r.Pairs, r.QuerySeconds/float64(r.Pairs)*1e6)
	fmt.Fprintf(&b, "  exact sample            %10.2fs for %d pairs (%.1fms/pair)\n",
		r.ExactSeconds, r.ExactSampled, r.ExactSeconds/float64(max(r.ExactSampled, 1))*1e3)
	fmt.Fprintf(&b, "  query speedup vs exact  %10.0fx\n", r.Speedup)
	fmt.Fprintf(&b, "  max rel err vs exact    %10.4f (target <= %.2f-ish)\n", r.MaxRelErr, r.Eps)
	fmt.Fprintf(&b, "  non-finite answers      %10d (must be 0)\n", r.NonFinite)
	return b.String()
}

// SyntheticRunInput builds a full pipeline input (pin graph, untrained-GCN
// embeddings, features) of roughly targetPins nodes for end-to-end scaling
// benchmarks. Deterministic per (targetPins, seed).
func SyntheticRunInput(targetPins int, seed int64) core.Input {
	nl := syntheticNetlist(targetPins, seed)
	return core.Input{Graph: nl.PinGraph(), Output: untrainedEmbeddings(nl, seed), Features: nl.Features()}
}
