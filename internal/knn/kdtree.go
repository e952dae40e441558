// Package knn builds k-nearest-neighbor graphs over embeddings, the first
// step of CirSTAG's Phase-2 manifold construction. Neighbor search uses an
// exact k-d tree that splits each node on its widest axis, and neighbors are
// ordered by (d², id), so a distance tie goes to the lower id whatever shape
// the tree has. A k-d tree prunes well only in few dimensions. On the
// pipeline's 37-column input embedding (16 spectral + 21 feature columns) an
// input-manifold query examines on average 2,524 of 6,847 points on i2c and
// 3,546 of 10,710 on pci_spoci (seed 1), about a third of n, so the input
// build is still closer to O(n²·d) than to O(n log n). The knn.query_fanout
// histogram records the fanout.
package knn

import (
	"container/heap"
	"fmt"
	"sort"

	"cirstag/internal/faultinject"
	"cirstag/internal/mat"
	"cirstag/internal/obs"
	"cirstag/internal/parallel"
)

// Search-structure metrics: knn.tree_depth is the depth of the most recently
// built tree (≈ log₂ n when splits are balanced); knn.query_fanout is the
// distribution of points actually examined per query — the pruning
// effectiveness signal (n per query means the tree degenerated to a scan).
var (
	treeDepthGauge = obs.NewGauge("knn.tree_depth")
	treesBuilt     = obs.NewCounter("knn.trees_built")
	queriesRun     = obs.NewCounter("knn.queries")
	queryFanout    = obs.NewHistogram("knn.query_fanout", obs.ExpBuckets(8, 2, 14)...)
)

// KDTree is a static k-d tree over the rows of a point matrix.
type KDTree struct {
	pts      *mat.Dense
	idx      []int // point indices in tree order
	axis     []int // split axis of the node whose median sits at this slot
	dims     int
	maxDepth int
}

// kdNode ranges are encoded implicitly: the tree is stored as a median-split
// ordering of idx, with node boundaries recomputed during descent. A node's
// split axis is stored at its median slot, so the structure needs nothing
// beyond the two index slices.

// NewKDTree builds a k-d tree over the rows of pts.
func NewKDTree(pts *mat.Dense) *KDTree {
	t := &KDTree{pts: pts, idx: make([]int, pts.Rows), axis: make([]int, pts.Rows), dims: pts.Cols}
	for i := range t.idx {
		t.idx[i] = i
	}
	t.build(0, pts.Rows, 0, make([]float64, 2*pts.Cols))
	treesBuilt.Inc()
	treeDepthGauge.Set(float64(t.maxDepth))
	return t
}

// build splits each node on its widest axis rather than cycling through the
// axes: on embeddings whose columns differ widely in spread (0/1 feature
// flags beside continuous spectral columns), a cyclic split lands on axes
// that separate nothing and the tree cannot prune. bounds is a buffer that
// widestAxis reuses at every node.
func (t *KDTree) build(lo, hi, depth int, bounds []float64) {
	if depth > t.maxDepth {
		t.maxDepth = depth
	}
	if hi-lo <= 1 {
		return
	}
	axis := t.widestAxis(lo, hi, bounds)
	mid := (lo + hi) / 2
	t.nthElement(lo, hi, mid, axis)
	t.axis[mid] = axis
	t.build(lo, mid, depth+1, bounds)
	t.build(mid+1, hi, depth+1, bounds)
}

// widestAxis returns the axis with the largest spread (max − min) over the
// points idx[lo:hi], the lowest such axis on ties.
func (t *KDTree) widestAxis(lo, hi int, bounds []float64) int {
	mn, mx := bounds[:t.dims], bounds[t.dims:]
	copy(mn, t.pts.Row(t.idx[lo]))
	copy(mx, mn)
	for _, p := range t.idx[lo+1 : hi] {
		for a, x := range t.pts.Row(p) {
			if x < mn[a] {
				mn[a] = x
			} else if x > mx[a] {
				mx[a] = x
			}
		}
	}
	best, spread := 0, mx[0]-mn[0]
	for a := 1; a < t.dims; a++ {
		if s := mx[a] - mn[a]; s > spread {
			best, spread = a, s
		}
	}
	return best
}

// nthElement partially sorts idx[lo:hi] so that idx[n] holds the element of
// rank n−lo by the given axis (quickselect with median-of-three pivots).
// Ranges of size <= 2 are finished by direct sort — the base case that keeps
// duplicate-heavy inputs (all-identical points from degenerate embeddings of
// tiny circuits) out of the quickselect loop — and any partition step that
// fails to shrink the active range falls back to a full sort of what remains,
// bounding the worst case at O(m log m) instead of quadratic.
func (t *KDTree) nthElement(lo, hi, n, axis int) {
	coord := func(i int) float64 { return t.pts.At(t.idx[i], axis) }
	for hi-lo > 2 {
		prevLo, prevHi := lo, hi
		// Median-of-three pivot.
		m := (lo + hi) / 2
		if coord(m) < coord(lo) {
			t.idx[m], t.idx[lo] = t.idx[lo], t.idx[m]
		}
		if coord(hi-1) < coord(lo) {
			t.idx[hi-1], t.idx[lo] = t.idx[lo], t.idx[hi-1]
		}
		if coord(hi-1) < coord(m) {
			t.idx[hi-1], t.idx[m] = t.idx[m], t.idx[hi-1]
		}
		pivot := coord(m)
		i, j := lo, hi-1
		for i <= j {
			for coord(i) < pivot {
				i++
			}
			for coord(j) > pivot {
				j--
			}
			if i <= j {
				t.idx[i], t.idx[j] = t.idx[j], t.idx[i]
				i++
				j--
			}
		}
		if n <= j {
			hi = j + 1
		} else if n >= i {
			lo = i
		} else {
			return
		}
		if lo == prevLo && hi == prevHi {
			// No progress (possible only on duplicate-saturated ranges):
			// finish by sorting instead of spinning.
			break
		}
	}
	// Base case (hi-lo <= 2) or stalled partition: direct sort.
	sub := t.idx[lo:hi]
	sort.Slice(sub, func(a, b int) bool {
		return t.pts.At(sub[a], axis) < t.pts.At(sub[b], axis)
	})
}

// Neighbor is a kNN query result: a point index and its squared distance.
type Neighbor struct {
	ID    int
	Dist2 float64
}

// before orders neighbors by (d², id): nearer first, the lower id on a
// distance tie. It is a total order on the points of one query, so the k
// nearest are one set whatever order the search visits the points in.
func (a Neighbor) before(b Neighbor) bool {
	return a.Dist2 < b.Dist2 || (a.Dist2 == b.Dist2 && a.ID < b.ID)
}

// maxHeap keeps the worst of the current k neighbors at its root.
type maxHeap []Neighbor

func (h maxHeap) Len() int            { return len(h) }
func (h maxHeap) Less(i, j int) bool  { return h[j].before(h[i]) }
func (h maxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x interface{}) { *h = append(*h, x.(Neighbor)) }
func (h *maxHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Query returns the k nearest neighbors of the query point q (excluding any
// point at index skip; pass -1 to keep all): the k smallest (d², id) pairs,
// sorted ascending, so a distance tie goes to the lower id.
func (t *KDTree) Query(q mat.Vec, k, skip int) []Neighbor {
	if len(q) != t.dims {
		panic(fmt.Sprintf("knn: query dim %d, tree dim %d", len(q), t.dims))
	}
	h := make(maxHeap, 0, k+1)
	var visited int
	t.search(0, len(t.idx), q, k, skip, &h, &visited)
	queriesRun.Inc()
	queryFanout.Observe(float64(visited))
	out := make([]Neighbor, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(Neighbor)
	}
	return out
}

func (t *KDTree) search(lo, hi int, q mat.Vec, k, skip int, h *maxHeap, visited *int) {
	if hi <= lo {
		return
	}
	if hi-lo == 1 {
		t.consider(t.idx[lo], q, k, skip, h, visited)
		return
	}
	mid := (lo + hi) / 2
	axis := t.axis[mid]
	p := t.idx[mid]
	t.consider(p, q, k, skip, h, visited)
	diff := q[axis] - t.pts.At(p, axis)
	var near, far [2]int
	if diff < 0 {
		near = [2]int{lo, mid}
		far = [2]int{mid + 1, hi}
	} else {
		near = [2]int{mid + 1, hi}
		far = [2]int{lo, mid}
	}
	t.search(near[0], near[1], q, k, skip, h, visited)
	// Prune the far side when the splitting plane is beyond the current kth
	// distance. A far point exactly at the kth distance can still win on id,
	// hence <=.
	if len(*h) < k || diff*diff <= (*h)[0].Dist2 {
		t.search(far[0], far[1], q, k, skip, h, visited)
	}
}

func (t *KDTree) consider(p int, q mat.Vec, k, skip int, h *maxHeap, visited *int) {
	if p == skip {
		return
	}
	*visited++
	row := t.pts.Row(p)
	var d2 float64
	for i, x := range q {
		d := x - row[i]
		d2 += d * d
	}
	nb := Neighbor{ID: p, Dist2: d2}
	if len(*h) < k {
		heap.Push(h, nb)
	} else if nb.before((*h)[0]) {
		(*h)[0] = nb
		heap.Fix(h, 0)
	}
}

// BruteForce returns the k nearest neighbors of row i by exhaustive scan, in
// Query's (d², id) order; used as a test oracle and for very small inputs.
func BruteForce(pts *mat.Dense, i, k int) []Neighbor {
	q := pts.Row(i)
	all := make([]Neighbor, 0, pts.Rows-1)
	for j := 0; j < pts.Rows; j++ {
		if j == i {
			continue
		}
		row := pts.Row(j)
		var d2 float64
		for c, x := range q {
			d := x - row[c]
			d2 += d * d
		}
		all = append(all, Neighbor{ID: j, Dist2: d2})
	}
	sort.Slice(all, func(a, b int) bool { return all[a].before(all[b]) })
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// minDistance2Floor is the smallest squared distance used when two embedded
// points coincide; it keeps kNN edge weights finite.
const minDistance2Floor = 1e-12

// Graph builds a symmetric kNN graph over the rows of pts: each node is
// connected to its k nearest neighbors with weight w = 1/d², matching the
// PGM convention D_data = 1/w of CirSTAG eq. (7). Mutual edges discovered
// from both endpoints are merged (weight kept, not doubled).
type Graph struct {
	N     int
	Edges []WeightedEdge
}

// directedEdge is one pre-merge kNN hit, already normalized to U < V.
type directedEdge struct {
	u, v int
	d2   float64
}

// WeightedEdge is an undirected weighted edge with U < V.
type WeightedEdge struct {
	U, V int
	W    float64
}

// BuildGraph constructs the kNN graph of the rows of pts. The per-point tree
// queries fan out across the worker pool (the tree is immutable after
// construction and every point writes its own neighbor buffer), and the
// buffers are merged by a sorted scan, so the edge list is identical for any
// worker count. A query is costed as the n·d scan it tends to in the
// pipeline's 16–37 dimensions, where it visits a third to half of the points.
func BuildGraph(pts *mat.Dense, k int) *Graph {
	n := pts.Rows
	if k <= 0 {
		panic("knn: k must be positive")
	}
	if k >= n {
		k = n - 1
	}
	tree := NewKDTree(pts)
	nbrs := parallel.Map(n, parallel.Grain(n*pts.Cols), func(i int) []Neighbor {
		return tree.Query(pts.Row(i), k, i)
	})
	return mergeNeighbors(nbrs, k)
}

// mergeNeighbors turns per-point lists of at most k neighbors (nbrs[i] for
// point i) into the weighted kNN graph.
func mergeNeighbors(nbrs [][]Neighbor, k int) *Graph {
	n := len(nbrs)
	// Deterministic merge: normalize every directed hit to U < V, sort, and
	// collapse duplicates. A mutual edge is discovered from both endpoints
	// with the same d² (the squared-difference sum is symmetric), but the
	// merge keeps min(d²) explicitly so the kept distance is well-defined by
	// construction rather than by discovery order.
	all := make([]directedEdge, 0, n*k)
	for i, ns := range nbrs {
		for _, nb := range ns {
			u, v := i, nb.ID
			if u > v {
				u, v = v, u
			}
			all = append(all, directedEdge{u: u, v: v, d2: nb.Dist2})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].u != all[b].u {
			return all[a].u < all[b].u
		}
		if all[a].v != all[b].v {
			return all[a].v < all[b].v
		}
		return all[a].d2 < all[b].d2
	})
	merged := all[:0]
	for _, e := range all {
		if len(merged) > 0 {
			last := &merged[len(merged)-1]
			if last.u == e.u && last.v == e.v {
				if e.d2 < last.d2 {
					last.d2 = e.d2
				}
				continue
			}
		}
		merged = append(merged, e)
	}
	// Clamp the squared distances to a bounded dynamic range around the
	// median so the 1/d² edge weights keep the manifold Laplacian reasonably
	// conditioned (coincident points would otherwise produce near-infinite
	// weights and cripple the iterative solvers downstream).
	d2s := make([]float64, len(merged))
	for i, e := range merged {
		d2s[i] = e.d2
	}
	sort.Float64s(d2s)
	floor := minDistance2Floor
	if len(d2s) > 0 {
		if m := d2s[len(d2s)/2] * 1e-9; m > floor {
			floor = m
		}
	}
	g := &Graph{N: n, Edges: make([]WeightedEdge, len(merged))}
	for i, e := range merged {
		// Fault-injection point: tests zero the distance here to simulate
		// coincident points; the floor below must keep 1/d² finite.
		dd := faultinject.Float(faultinject.PointKNNDist2, e.d2)
		if dd < floor {
			dd = floor
		}
		g.Edges[i] = WeightedEdge{U: e.u, V: e.v, W: 1 / dd}
	}
	return g
}
