package sparsify

import (
	"cirstag/internal/graph"
)

// TreePaths answers tree-path resistance queries on a spanning forest in
// O(log n) per query via binary-lifting LCA. The path resistance between u
// and v is Σ 1/w over the unique tree path, or −1 if they lie in different
// components.
type TreePaths struct {
	n      int
	comp   []int
	depth  []int
	resUp  []float64 // resistance from node to its parent accumulated to root
	up     [][]int   // up[k][v] = 2^k-th ancestor of v (-1 above root)
	levels int
}

// NewTreePaths preprocesses the spanning forest given by tree (edge indices
// into g.Edges()).
func NewTreePaths(g *graph.Graph, tree []int) *TreePaths {
	n := g.N()
	edges := g.Edges()
	type arc struct {
		to int
		r  float64
	}
	adj := make([][]arc, n)
	for _, id := range tree {
		e := edges[id]
		r := 1 / e.W
		adj[e.U] = append(adj[e.U], arc{to: e.V, r: r})
		adj[e.V] = append(adj[e.V], arc{to: e.U, r: r})
	}
	levels := 1
	for (1 << levels) < n+1 {
		levels++
	}
	tp := &TreePaths{
		n:      n,
		comp:   make([]int, n),
		depth:  make([]int, n),
		resUp:  make([]float64, n),
		levels: levels,
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
		tp.comp[i] = -1
	}
	// Iterative DFS per component.
	stack := make([]int, 0, n)
	nc := 0
	for s := 0; s < n; s++ {
		if tp.comp[s] != -1 {
			continue
		}
		tp.comp[s] = nc
		tp.depth[s] = 0
		tp.resUp[s] = 0
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, a := range adj[u] {
				if tp.comp[a.to] == -1 {
					tp.comp[a.to] = nc
					parent[a.to] = u
					tp.depth[a.to] = tp.depth[u] + 1
					tp.resUp[a.to] = tp.resUp[u] + a.r
					stack = append(stack, a.to)
				}
			}
		}
		nc++
	}
	// Binary lifting table.
	tp.up = make([][]int, levels)
	tp.up[0] = parent
	for k := 1; k < levels; k++ {
		tp.up[k] = make([]int, n)
		for v := 0; v < n; v++ {
			p := tp.up[k-1][v]
			if p == -1 {
				tp.up[k][v] = -1
			} else {
				tp.up[k][v] = tp.up[k-1][p]
			}
		}
	}
	return tp
}

// LCA returns the lowest common ancestor of u and v, or −1 if they are in
// different components.
func (tp *TreePaths) LCA(u, v int) int {
	if tp.comp[u] != tp.comp[v] {
		return -1
	}
	if tp.depth[u] < tp.depth[v] {
		u, v = v, u
	}
	diff := tp.depth[u] - tp.depth[v]
	for k := 0; diff > 0; k++ {
		if diff&1 == 1 {
			u = tp.up[k][u]
		}
		diff >>= 1
	}
	if u == v {
		return u
	}
	for k := tp.levels - 1; k >= 0; k-- {
		if tp.up[k][u] != tp.up[k][v] {
			u = tp.up[k][u]
			v = tp.up[k][v]
		}
	}
	return tp.up[0][u]
}

// PathResistance returns the resistance of the tree path between u and v, or
// −1 if they are disconnected in the forest.
func (tp *TreePaths) PathResistance(u, v int) float64 {
	if u == v {
		return 0
	}
	a := tp.LCA(u, v)
	if a == -1 {
		return -1
	}
	return tp.resUp[u] + tp.resUp[v] - 2*tp.resUp[a]
}
