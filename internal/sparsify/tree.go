// Package sparsify implements the Phase-2 graph-reduction machinery of
// CirSTAG: spanning-tree extraction (maximum-weight and low-stretch
// shortest-path trees), tree-path resistance queries, and spectral
// sparsification that prunes off-tree edges with small spectral distortion
// η = w·R_eff (paper eq. 8) while preserving connectivity.
package sparsify

import (
	"container/heap"
	"math/rand"
	"sort"

	"cirstag/internal/graph"
)

// unionFind is a standard disjoint-set structure with path compression and
// union by rank.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	return true
}

// MaxWeightSpanningTree returns the indices (into g.Edges()) of a
// maximum-weight spanning forest of g, computed with Kruskal's algorithm.
// Maximizing total weight minimizes the total edge resistance Σ 1/w of the
// tree, making it a good low-stretch backbone for resistance-based
// sparsification.
func MaxWeightSpanningTree(g *graph.Graph) []int {
	edges := g.Edges()
	order := make([]int, len(edges))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return edges[order[a]].W > edges[order[b]].W })
	uf := newUnionFind(g.N())
	tree := make([]int, 0, g.N()-1)
	for _, id := range order {
		e := edges[id]
		if uf.union(e.U, e.V) {
			tree = append(tree, id)
		}
	}
	sort.Ints(tree)
	return tree
}

// spItem is a priority-queue entry for Dijkstra.
type spItem struct {
	node int
	dist float64
}

type spHeap []spItem

func (h spHeap) Len() int            { return len(h) }
func (h spHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h spHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *spHeap) Push(x interface{}) { *h = append(*h, x.(spItem)) }
func (h *spHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// ShortestPathTree returns edge indices of a shortest-path tree rooted at
// src, using edge length 1/w (resistance) as the metric. For disconnected
// graphs only src's component is covered; remaining components get their own
// max-weight forests so the result is always a spanning forest.
func ShortestPathTree(g *graph.Graph, src int) []int {
	n := g.N()
	edges := g.Edges()
	// adjacency with edge ids
	type arc struct{ to, eid int }
	adj := make([][]arc, n)
	for id, e := range edges {
		adj[e.U] = append(adj[e.U], arc{to: e.V, eid: id})
		adj[e.V] = append(adj[e.V], arc{to: e.U, eid: id})
	}
	const inf = 1e308
	dist := make([]float64, n)
	parentEdge := make([]int, n)
	for i := range dist {
		dist[i] = inf
		parentEdge[i] = -1
	}
	dist[src] = 0
	h := &spHeap{{node: src, dist: 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(spItem)
		if it.dist > dist[it.node] {
			continue
		}
		for _, a := range adj[it.node] {
			nd := it.dist + 1/edges[a.eid].W
			if nd < dist[a.to] {
				dist[a.to] = nd
				parentEdge[a.to] = a.eid
				heap.Push(h, spItem{node: a.to, dist: nd})
			}
		}
	}
	tree := make([]int, 0, n-1)
	covered := newUnionFind(n)
	for v := 0; v < n; v++ {
		if parentEdge[v] >= 0 {
			tree = append(tree, parentEdge[v])
			covered.union(edges[parentEdge[v]].U, edges[parentEdge[v]].V)
		}
	}
	// Complete unreachable components with a max-weight forest.
	order := make([]int, len(edges))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return edges[order[a]].W > edges[order[b]].W })
	for _, id := range order {
		e := edges[id]
		if covered.union(e.U, e.V) {
			tree = append(tree, id)
		}
	}
	sort.Ints(tree)
	return dedupInts(tree)
}

// LowStretchTree picks a spanning tree with empirically low total stretch by
// running shortest-path trees from a few random roots plus the max-weight
// tree, and keeping the candidate whose total stretch (Σ_e w_e ·
// treePathResistance(e)) is smallest.
func LowStretchTree(g *graph.Graph, rng *rand.Rand) []int {
	candidates := [][]int{MaxWeightSpanningTree(g)}
	n := g.N()
	if n > 0 {
		roots := 3
		for r := 0; r < roots; r++ {
			candidates = append(candidates, ShortestPathTree(g, rng.Intn(n)))
		}
	}
	best := candidates[0]
	bestStretch := TotalStretch(g, best)
	for _, c := range candidates[1:] {
		if s := TotalStretch(g, c); s < bestStretch {
			bestStretch = s
			best = c
		}
	}
	return best
}

// TotalStretch computes Σ over all edges e of w_e · R_tree(e), the classic
// stretch objective of low-stretch spanning trees, where R_tree(e) is the
// resistance (Σ 1/w) of the tree path connecting e's endpoints.
func TotalStretch(g *graph.Graph, tree []int) float64 {
	tp := NewTreePaths(g, tree)
	var s float64
	for _, e := range g.Edges() {
		r := tp.PathResistance(e.U, e.V)
		if r >= 0 {
			s += e.W * r
		}
	}
	return s
}

func dedupInts(xs []int) []int {
	if len(xs) == 0 {
		return xs
	}
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
