// Package perturb implements the perturbation machinery of the experiment
// harness: node-feature perturbations (pin-capacitance scaling, Case Study A)
// and graph-topology perturbations (edge rewiring around selected gates,
// Case Study B).
package perturb

import (
	"math/rand"
	"sort"

	"cirstag/internal/circuit"
	"cirstag/internal/graph"
)

// ScaleCaps returns a clone of nl with the capacitance of the given input
// pins multiplied by factor. Non-input pins in the list are ignored (output
// pins carry no capacitance in this model).
func ScaleCaps(nl *circuit.Netlist, pins []int, factor float64) *circuit.Netlist {
	out := nl.Clone()
	for _, p := range pins {
		if p >= 0 && p < len(out.Pins) && out.Pins[p].Dir == circuit.DirIn {
			out.Pins[p].Cap *= factor
		}
	}
	return out
}

// InputPinsOnly filters a ranked node list down to input pins (the
// perturbable nodes of Case Study A), preserving order.
func InputPinsOnly(nl *circuit.Netlist, nodes []int) []int {
	out := make([]int, 0, len(nodes))
	for _, p := range nodes {
		if p >= 0 && p < len(nl.Pins) && nl.Pins[p].Dir == circuit.DirIn {
			out = append(out, p)
		}
	}
	return out
}

// PrimaryOutputPinSet returns the set of primary-output pins, which the
// paper excludes from ranking ("nodes representing output pins were
// excluded, as they do not directly affect internal timing dynamics").
func PrimaryOutputPinSet(nl *circuit.Netlist) map[int]bool {
	out := make(map[int]bool)
	for _, p := range nl.PrimaryOutputPins() {
		out[p] = true
	}
	return out
}

func sortEdges(es []graph.Edge) {
	sort.Slice(es, func(a, b int) bool {
		if es[a].U != es[b].U {
			return es[a].U < es[b].U
		}
		return es[a].V < es[b].V
	})
}

// RewireNodesLocal returns a copy of g where, for each selected node,
// perNode of its incident edges are disconnected on the far side and
// reattached to a random non-neighbour drawn from the node's 2-hop
// neighbourhood. Degree at the selected node is preserved, and the
// perturbation stays local: a small, locality-preserving topology change
// suited to probing local Lipschitz behaviour (large random rewires saturate
// every node's response), matching Case Study B's targeted topology
// perturbations.
func RewireNodesLocal(g *graph.Graph, nodes []int, perNode int, rng *rand.Rand) *graph.Graph {
	n := g.N()
	type edge struct{ u, v int }
	keep := make(map[edge]float64, g.M())
	for _, e := range g.Edges() {
		keep[edge{e.U, e.V}] = e.W
	}
	norm := func(u, v int) edge {
		if u > v {
			u, v = v, u
		}
		return edge{u, v}
	}
	has := func(u, v int) bool {
		_, ok := keep[norm(u, v)]
		return ok
	}
	for _, s := range nodes {
		if s < 0 || s >= n {
			continue
		}
		// Candidate endpoints: 2-hop neighbourhood minus current neighbours.
		var cands []int
		seen := map[int]bool{s: true}
		for _, u := range g.SortedNeighbors(s) {
			seen[u] = true
		}
		for _, u := range g.SortedNeighbors(s) {
			for _, w := range g.SortedNeighbors(u) {
				if !seen[w] {
					seen[w] = true
					cands = append(cands, w)
				}
			}
		}
		if len(cands) == 0 {
			continue
		}
		ns := g.SortedNeighbors(s)
		rng.Shuffle(len(ns), func(i, j int) { ns[i], ns[j] = ns[j], ns[i] })
		cnt := perNode
		if cnt > len(ns) {
			cnt = len(ns)
		}
		for k := 0; k < cnt; k++ {
			old := norm(s, ns[k])
			w, ok := keep[old]
			if !ok {
				continue
			}
			var t int
			found := false
			for attempt := 0; attempt < 16; attempt++ {
				t = cands[rng.Intn(len(cands))]
				if t != s && !has(s, t) {
					found = true
					break
				}
			}
			if !found {
				continue
			}
			delete(keep, old)
			keep[norm(s, t)] = w
		}
	}
	out := graph.New(n)
	es := make([]graph.Edge, 0, len(keep))
	for e, w := range keep {
		es = append(es, graph.Edge{U: e.u, V: e.v, W: w})
	}
	sortEdges(es)
	for _, e := range es {
		out.AddEdge(e.U, e.V, e.W)
	}
	return out
}
