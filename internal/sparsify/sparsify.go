package sparsify

import (
	"math/rand"
	"sort"

	"cirstag/internal/effres"
	"cirstag/internal/graph"
	"cirstag/internal/obs"
	"cirstag/internal/solver"
)

// sketchResistanceUses counts Sparsify calls that ranked edges by sketched
// effective resistances instead of tree-path upper bounds.
var sketchResistanceUses = obs.NewCounter("sparsify.sketch_resistance_uses")

// Caps on the edge-ranking sketch (see the SketchAboveNodes path in
// Sparsify). Measured on a 13k-node kNN manifold against a converged
// tol-1e-6 sketch: 48 rows × ≤150 iterations preserves 98% of the
// top-budget η ordering; 60 iterations drops it to 80%.
const (
	rankingSketchMaxRows = 48
	rankingSketchMaxIter = 150
)

// Options controls spectral sparsification.
type Options struct {
	// TargetEdges is the edge budget of the sparsifier. The spanning forest
	// is always kept, so the effective budget is max(TargetEdges, n−1).
	// Zero selects 2·(n−1) (about average degree 4).
	TargetEdges int
	// SketchAboveNodes, when positive, ranks edges by Spielman–Srivastava-
	// sketched effective resistances (effres.Sketch) once the graph reaches
	// this many nodes, instead of tree-path resistances. Tree-path bounds
	// overestimate off-tree resistances by up to the tree stretch, which
	// grows with n; the sketch
	// stays within (1±ε) of the truth at O((m+n·q)·q) build cost — amortized
	// near-linear thanks to the blocked multi-RHS solve underneath.
	SketchAboveNodes int
	// SketchEps is the sketch's target relative error (effres.SketchQ).
	// Values outside (0,1) select the default 0.3.
	SketchEps float64
}

// Result describes a sparsified graph.
type Result struct {
	Graph     *graph.Graph
	TreeEdges []int     // indices into the input graph's edge list
	KeptEdges []int     // all kept edge indices, ascending
	Eta       []float64 // spectral distortion η per input edge (w·R̂eff)
}

// Sparsify prunes non-critical edges of g following CirSTAG's Phase-2 rule:
// edges with small spectral distortion η_pq = w_pq·R̂eff(p,q) (eq. 8) are
// removed first, because they contribute little to F₁ = log det Θ while
// keeping them costs F₂ budget. A low-stretch spanning forest is always
// preserved so the manifold stays connected (per component of g).
//
// R̂eff is each off-tree edge's tree-path resistance, an upper bound on its
// effective resistance that avoids Laplacian solves, or a sketched effective
// resistance from opts.SketchAboveNodes nodes up.
func Sparsify(g *graph.Graph, rng *rand.Rand, opts Options) *Result {
	n := g.N()
	edges := g.Edges()
	m := len(edges)
	if opts.TargetEdges <= 0 {
		opts.TargetEdges = 2 * (n - 1)
	}
	tree := LowStretchTree(g, rng)
	inTree := make([]bool, m)
	for _, id := range tree {
		inTree[id] = true
	}
	// Resistance estimate for every edge. Large-graph path: replace
	// tree-path resistance bounds with sketched effective resistances. The
	// sketch consumes rng strictly after LowStretchTree, so large-graph runs
	// stay deterministic per seed.
	eta := make([]float64, m)
	if opts.SketchAboveNodes > 0 && n >= opts.SketchAboveNodes {
		// Ranking sketch: only the η *ordering* matters here, not resistance
		// values, so both sketch width and solver effort are capped well below
		// what a (1±ε) guarantee would need. On 1/d²-weighted kNN manifolds
		// (this path's only production input) the capped build keeps ~98% of
		// the top-budget edge ranking of a fully converged sketch at a third
		// of the solve count and a fraction of the iterations — dense random
		// RHS converge slowly there even under the spanning-tree
		// preconditioner, so truncated best-iterate solves are the right
		// price point.
		q := effres.SketchQ(n, opts.SketchEps)
		if q > rankingSketchMaxRows {
			q = rankingSketchMaxRows
		}
		sk := effres.NewSketch(g, q, rng,
			solver.Options{Tol: 1e-4, MaxIter: rankingSketchMaxIter, Precond: solver.PrecondTree})
		for id, r := range sk.EdgeResistances(g) {
			eta[id] = edges[id].W * r
		}
		sketchResistanceUses.Inc()
	} else {
		tp := NewTreePaths(g, tree)
		for id, e := range edges {
			r := 1 / e.W // tree edges: path resistance is the edge itself
			if !inTree[id] {
				// Tree-path resistance is an upper bound on Reff.
				if ptr := tp.PathResistance(e.U, e.V); ptr >= 0 {
					r = ptr
				}
			}
			eta[id] = e.W * r
		}
	}
	// Rank off-tree edges by descending η; keep the top ones within budget.
	offTree := make([]int, 0, m)
	for id := range edges {
		if !inTree[id] {
			offTree = append(offTree, id)
		}
	}
	sort.Slice(offTree, func(a, b int) bool {
		if eta[offTree[a]] != eta[offTree[b]] {
			return eta[offTree[a]] > eta[offTree[b]]
		}
		return offTree[a] < offTree[b]
	})
	kept := append([]int(nil), tree...)
	if budget := opts.TargetEdges - len(tree); budget > 0 {
		kept = append(kept, offTree[:min(budget, len(offTree))]...)
	}
	sort.Ints(kept)
	out := graph.New(n)
	for _, id := range kept {
		e := edges[id]
		out.AddEdge(e.U, e.V, e.W)
	}
	return &Result{Graph: out, TreeEdges: tree, KeptEdges: kept, Eta: eta}
}
