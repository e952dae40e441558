package solver

import (
	"sort"

	"cirstag/internal/mat"
	"cirstag/internal/sparse"
)

// TreePrec is a Vaidya-style spanning-tree preconditioner for graph
// Laplacians: each application performs one exact O(n) solve of the
// maximum-weight spanning forest's Laplacian (two tree passes). Its
// condition bound is the total stretch of the tree, which stays moderate
// even when edge weights span many orders of magnitude — exactly the regime
// of CirSTAG's 1/d² kNN manifolds, where Jacobi preconditioning collapses.
type TreePrec struct {
	n      int
	parent []int     // parent node in the rooted forest (-1 at roots)
	pw     []float64 // weight of the edge to the parent
	order  []int     // nodes in BFS order (roots first)
	comp   []int     // component id per node
	sizes  []int     // component sizes
}

// NewTreePrecFromCSR extracts the weighted graph from the off-diagonal
// pattern of a Laplacian (entries l_ij < 0 become edges with weight −l_ij),
// picks a maximum-weight spanning forest, and prepares the two-pass solver.
func NewTreePrecFromCSR(l *sparse.CSR) *TreePrec {
	n := l.Rows
	type edge struct {
		u, v int
		w    float64
	}
	var edges []edge
	for i := 0; i < n; i++ {
		for k := l.RowPtr[i]; k < l.RowPtr[i+1]; k++ {
			j := l.ColIdx[k]
			if j > i && l.Val[k] < 0 {
				edges = append(edges, edge{u: i, v: j, w: -l.Val[k]})
			}
		}
	}
	// Kruskal, heaviest first.
	sort.Slice(edges, func(a, b int) bool { return edges[a].w > edges[b].w })
	parent := make([]int, n)
	pw := make([]float64, n)
	uf := make([]int, n)
	for i := range uf {
		uf[i] = i
		parent[i] = -1
	}
	var find func(int) int
	find = func(x int) int {
		for uf[x] != x {
			uf[x] = uf[uf[x]]
			x = uf[x]
		}
		return x
	}
	type half struct {
		to int
		w  float64
	}
	adj := make([][]half, n)
	for _, e := range edges {
		ru, rv := find(e.u), find(e.v)
		if ru == rv {
			continue
		}
		uf[ru] = rv
		adj[e.u] = append(adj[e.u], half{to: e.v, w: e.w})
		adj[e.v] = append(adj[e.v], half{to: e.u, w: e.w})
	}
	// Root each component, BFS order.
	t := &TreePrec{n: n, parent: parent, pw: pw,
		comp: make([]int, n)}
	for i := range t.comp {
		t.comp[i] = -1
	}
	queue := make([]int, 0, n)
	nc := 0
	for s := 0; s < n; s++ {
		if t.comp[s] != -1 {
			continue
		}
		t.comp[s] = nc
		queue = append(queue, s)
		t.order = append(t.order, s)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, h := range adj[u] {
				if t.comp[h.to] == -1 {
					t.comp[h.to] = nc
					parent[h.to] = u
					pw[h.to] = h.w
					queue = append(queue, h.to)
					t.order = append(t.order, h.to)
				}
			}
		}
		nc++
	}
	t.sizes = make([]int, nc)
	for _, c := range t.comp {
		t.sizes[c]++
	}
	return t
}

// PrecondTo computes z = L_T⁺ r via the classic two-pass tree solve:
// an upward (reverse BFS) pass accumulates edge flows, a downward pass
// integrates potentials, and per-component means are removed on both sides
// so the preconditioner is SPD on the subspace PCG operates in.
func (t *TreePrec) PrecondTo(z, r mat.Vec) {
	// Project the rhs (kernel component must not reach the solve).
	nc := len(t.sizes)
	sums := make([]float64, nc)
	for i, x := range r {
		sums[t.comp[i]] += x
	}
	for c := range sums {
		sums[c] /= float64(t.sizes[c])
	}
	flow := make([]float64, t.n)
	for i := range r {
		flow[i] = r[i] - sums[t.comp[i]]
	}
	// Upward: flow to parent = own rhs + flows from children.
	for i := t.n - 1; i >= 0; i-- {
		u := t.order[i]
		if p := t.parent[u]; p >= 0 {
			flow[p] += flow[u]
		}
	}
	// Downward: potentials from roots.
	for _, u := range t.order {
		p := t.parent[u]
		if p < 0 {
			z[u] = 0
			continue
		}
		z[u] = z[p] + flow[u]/t.pw[u]
	}
	// Remove component means from the solution.
	for c := range sums {
		sums[c] = 0
	}
	for i, x := range z {
		sums[t.comp[i]] += x
	}
	for c := range sums {
		sums[c] /= float64(t.sizes[c])
	}
	for i := range z {
		z[i] -= sums[t.comp[i]]
	}
}

// PrecondBlockTo applies PrecondTo to the selected columns of r, walking the
// tree once per group of colGroup columns instead of once per column. Each
// column sees PrecondTo's operations in PrecondTo's order, so it is bitwise
// equal to PrecondTo on that column. The flows accumulate in z's own
// columns: the downward pass reads a node's flow from its slot just before
// overwriting it with the node's potential, and its parent's slot already
// holds the parent's potential. Columns of z outside cols are untouched.
func (t *TreePrec) PrecondBlockTo(z, r *mat.Dense, cols []int) {
	w := r.Cols
	nc := len(t.sizes)
	forColGroups(cols, func(g []int) {
		gw := len(g)
		// sums[c*gw+cc] is component c's mean of group column cc.
		sums := make([]float64, nc*gw)
		componentMeans := func(m *mat.Dense) {
			clear(sums)
			for i, c := range t.comp {
				row, s := m.Data[i*w:(i+1)*w], sums[c*gw:(c+1)*gw]
				for cc, j := range g {
					s[cc] += row[j]
				}
			}
			for c, size := range t.sizes {
				s := sums[c*gw : (c+1)*gw]
				for cc := range s {
					s[cc] /= float64(size)
				}
			}
		}
		// Project the rhs; the flows start as the projected rhs.
		componentMeans(r)
		for i, c := range t.comp {
			zrow, rrow, s := z.Data[i*w:(i+1)*w], r.Data[i*w:(i+1)*w], sums[c*gw:(c+1)*gw]
			for cc, j := range g {
				zrow[j] = rrow[j] - s[cc]
			}
		}
		// Upward: flow to parent = own rhs + flows from children.
		for i := t.n - 1; i >= 0; i-- {
			u := t.order[i]
			if p := t.parent[u]; p >= 0 {
				zu, zp := z.Data[u*w:(u+1)*w], z.Data[p*w:(p+1)*w]
				for _, j := range g {
					zp[j] += zu[j]
				}
			}
		}
		// Downward: potentials from roots.
		for _, u := range t.order {
			zu := z.Data[u*w : (u+1)*w]
			p := t.parent[u]
			if p < 0 {
				for _, j := range g {
					zu[j] = 0
				}
				continue
			}
			zp, pw := z.Data[p*w:(p+1)*w], t.pw[u]
			for _, j := range g {
				zu[j] = zp[j] + zu[j]/pw
			}
		}
		// Remove component means from the solution.
		componentMeans(z)
		for i, c := range t.comp {
			zrow, s := z.Data[i*w:(i+1)*w], sums[c*gw:(c+1)*gw]
			for cc, j := range g {
				zrow[j] -= s[cc]
			}
		}
	})
}
