// Package pgm learns probabilistic-graphical-model graph topologies from
// embedding matrices — Phase 2 of CirSTAG. A dense kNN graph is built over
// the data points and then spectrally sparsified by pruning edges with small
// spectral distortion η = w·R_eff (paper eq. 8), which greedily maximizes the
// SGL maximum-likelihood objective F(Θ) = log det Θ − (1/M)·Tr(XᵀΘX) (eq. 6)
// without the superlinear iteration count of the original SGL solver.
package pgm

import (
	"fmt"
	"math/rand"

	"cirstag/internal/graph"
	"cirstag/internal/knn"
	"cirstag/internal/mat"
	"cirstag/internal/obs"
	"cirstag/internal/sparsify"
)

// Options configures manifold construction.
type Options struct {
	// K is the kNN neighbourhood size of the initial dense graph. Default 10.
	K int
	// AvgDegree is the target average degree after sparsification; the edge
	// budget becomes AvgDegree·n/2. Default 6. A budget at or above the kNN
	// edge count keeps the dense kNN graph.
	AvgDegree int
	// Span, when non-nil, is the parent trace span under which the kNN and
	// sparsification sub-phases record their wall time (obs.Span is nil-safe,
	// so callers can forward a span unconditionally).
	Span *obs.Span
}

// sketchAboveNodes is the manifold size at which Phase-2 sparsification
// switches from tree-path resistance bounds to sketched effective
// resistances (see sparsify.Options.SketchAboveNodes). Below it the tree
// bound is accurate enough and the q sketch solves would dominate the
// phase; above it the tree stretch distorts the η ranking materially.
const sketchAboveNodes = 8192

// sketchEps is the sketch error target for Phase-2 resistance ranking —
// loose, because only the η *ordering* matters, not the values.
const sketchEps = 0.5

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 10
	}
	if o.AvgDegree <= 0 {
		o.AvgDegree = 6
	}
	return o
}

// Build constructs a graph-based manifold (a PGM) over the rows of the
// embedding matrix x. The result is connected whenever the kNN graph is
// connected, and has ~AvgDegree·n/2 edges.
func Build(x *mat.Dense, rng *rand.Rand, opts Options) *graph.Graph {
	opts = opts.withDefaults()
	ks := opts.Span.Child("knn")
	kg := knn.BuildGraph(x, opts.K)
	g := graph.New(kg.N)
	for _, e := range kg.Edges {
		g.AddEdge(e.U, e.V, e.W)
	}
	ks.End()
	target := opts.AvgDegree * kg.N / 2
	if target >= g.M() {
		return g
	}
	ss := opts.Span.Child("sparsify")
	res := sparsify.Sparsify(g, rng, sparsify.Options{
		TargetEdges:      target,
		SketchAboveNodes: sketchAboveNodes,
		SketchEps:        sketchEps,
	})
	ss.End()
	return res.Graph
}

// patchedEdges counts edges rewritten or added by PatchKNN across the run;
// prunedEdges counts stale incident edges it dropped because a changed
// endpoint moved out of kNN range.
var (
	patchedEdges = obs.NewCounter("pgm.patched_edges")
	prunedEdges  = obs.NewCounter("pgm.pruned_edges")
)

// PatchKNN locally repairs a previously built manifold after the embedding
// rows of a small set of nodes changed: edges between two unchanged nodes
// keep their (possibly sparsified) weight, edges touching a changed node get
// their weight recomputed from the new coordinates — or are pruned when the
// new distance exceeds every changed endpoint's kNN radius — and each changed
// node is re-linked to its k nearest neighbours in the new embedding. The
// result approximates what Build would produce on the full new matrix at
// O(k·|changed|·log n) cost instead of O(n log n + sparsify); it is exact for
// the unchanged subgraph but skips the global re-sparsification, which is why
// core.RunIncremental falls back to a full rebuild when too many nodes moved.
//
// Pruning is what keeps chained patches bounded: without it a node that moves
// across the embedding keeps every neighbour it ever had, inflating its
// degree monotonically over a long edit sequence. An edge incident to a
// changed node survives only while its new length stays within the kNN radius
// (k-th neighbour distance) of a changed endpoint; unchanged endpoints do not
// veto, since their neighbourhood scale was not recomputed.
//
// changed must be sorted ascending with ids in [0, y.Rows); base must have
// y.Rows nodes. The output is deterministic: base edges are visited in
// canonical order, then changed nodes in ascending order with neighbours in
// the kd-tree's ascending-distance order.
func PatchKNN(base *graph.Graph, y *mat.Dense, changed []int, opts Options) *graph.Graph {
	opts = opts.withDefaults()
	n := base.N()
	if y.Rows != n {
		panic(fmt.Sprintf("pgm: base has %d nodes, data has %d rows", n, y.Rows))
	}
	isChanged := make([]bool, n)
	for _, c := range changed {
		isChanged[c] = true
	}
	weight := func(d2 float64) float64 {
		if d2 < 1e-12 {
			d2 = 1e-12
		}
		return 1 / d2
	}
	if len(changed) == 0 {
		return base.Clone()
	}
	// Query each changed node's k nearest neighbours up front: the result
	// list drives the re-link phase below and its k-th distance is the kNN
	// radius the pruning test compares stale incident edges against.
	k := opts.K
	if k >= n {
		k = n - 1
	}
	tree := knn.NewKDTree(y)
	nbrs := make([][]knn.Neighbor, len(changed))
	radius2 := make(mat.Vec, n)
	for ci, c := range changed {
		nbrs[ci] = tree.Query(y.Row(c), k, c)
		if q := nbrs[ci]; len(q) > 0 {
			radius2[c] = q[len(q)-1].Dist2
		}
	}
	out := graph.New(n)
	for _, e := range base.Edges() {
		if isChanged[e.U] || isChanged[e.V] {
			d2 := DataDistance2(y, e.U, e.V)
			keep := (isChanged[e.U] && d2 <= radius2[e.U]) ||
				(isChanged[e.V] && d2 <= radius2[e.V])
			if !keep {
				prunedEdges.Inc()
				continue
			}
			out.AddEdge(e.U, e.V, weight(d2))
			patchedEdges.Inc()
			continue
		}
		out.AddEdge(e.U, e.V, e.W)
	}
	// Re-link each changed node to its k nearest neighbours in the new
	// embedding; HasEdge guards the insert because AddEdge merges duplicate
	// edges by summing weights.
	for ci, c := range changed {
		for _, nb := range nbrs[ci] {
			if out.HasEdge(c, nb.ID) {
				continue
			}
			out.AddEdge(c, nb.ID, weight(DataDistance2(y, c, nb.ID)))
			patchedEdges.Inc()
		}
	}
	return out
}

// DataDistance2 returns ‖Xᵀe_pq‖² = ‖x_p − x_q‖², the D^data term of eq. 7.
func DataDistance2(x *mat.Dense, p, q int) float64 {
	rp, rq := x.Row(p), x.Row(q)
	var d2 float64
	for c := range rp {
		d := rp[c] - rq[c]
		d2 += d * d
	}
	return d2
}
