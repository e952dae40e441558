package perturb

import (
	"math/rand"
	"testing"

	"cirstag/internal/circuit"
	"cirstag/internal/graph"
)

func TestScaleCaps(t *testing.T) {
	nl := circuit.Generate(circuit.StandardBenchmarks()[0], rand.New(rand.NewSource(1)))
	// Pick a few input pins and one output pin.
	var inPins []int
	var outPin int = -1
	for _, p := range nl.Pins {
		if p.Dir == circuit.DirIn && len(inPins) < 3 {
			inPins = append(inPins, p.ID)
		}
		if p.Dir == circuit.DirOut && outPin == -1 {
			outPin = p.ID
		}
	}
	targets := append(append([]int{}, inPins...), outPin)
	out := ScaleCaps(nl, targets, 5)
	for _, p := range inPins {
		if out.Pins[p].Cap != nl.Pins[p].Cap*5 {
			t.Fatal("input pin cap not scaled")
		}
	}
	if out.Pins[outPin].Cap != nl.Pins[outPin].Cap {
		t.Fatal("output pin cap should be untouched")
	}
	// Original untouched.
	if nl.Pins[inPins[0]].Cap == out.Pins[inPins[0]].Cap {
		t.Fatal("original mutated")
	}
	// Out-of-range ids are ignored.
	_ = ScaleCaps(nl, []int{-1, 1 << 30}, 2)
}

func TestInputPinsOnly(t *testing.T) {
	nl := circuit.Generate(circuit.StandardBenchmarks()[0], rand.New(rand.NewSource(2)))
	all := make([]int, nl.NumPins())
	for i := range all {
		all[i] = i
	}
	ins := InputPinsOnly(nl, all)
	for _, p := range ins {
		if nl.Pins[p].Dir != circuit.DirIn {
			t.Fatal("non-input pin passed the filter")
		}
	}
	// Order preserved.
	for i := 1; i < len(ins); i++ {
		if ins[i] < ins[i-1] {
			t.Fatal("order not preserved")
		}
	}
}

func TestPrimaryOutputPinSet(t *testing.T) {
	nl := circuit.Generate(circuit.StandardBenchmarks()[0], rand.New(rand.NewSource(3)))
	set := PrimaryOutputPinSet(nl)
	if len(set) != len(nl.PrimaryOutputs) {
		t.Fatal("PO set size wrong")
	}
	for _, p := range nl.PrimaryOutputPins() {
		if !set[p] {
			t.Fatal("PO pin missing from set")
		}
	}
}

func ringGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n, 1)
	}
	return g
}

func TestRewireNodesPreservesEdgeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := ringGraph(50)
	h := RewireNodesLocal(g, []int{0, 10, 20}, 2, rng)
	if h.M() != g.M() {
		t.Fatalf("edge count changed: %d vs %d", h.M(), g.M())
	}
	if h.N() != g.N() {
		t.Fatal("node count changed")
	}
	// Original untouched.
	if !g.HasEdge(0, 1) && !g.HasEdge(0, 49) {
		t.Fatal("original graph mutated")
	}
}

func TestRewireNodesChangesNeighborhoods(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := ringGraph(60)
	targets := []int{0, 15, 30, 45}
	h := RewireNodesLocal(g, targets, 2, rng)
	changed := 0
	for _, s := range targets {
		before := g.SortedNeighbors(s)
		after := h.SortedNeighbors(s)
		if len(before) != len(after) {
			continue // degree changes are possible if rewire hit both ends
		}
		for i := range before {
			if before[i] != after[i] {
				changed++
				break
			}
		}
	}
	if changed == 0 {
		t.Fatal("no neighborhood changed")
	}
}

func TestRewireNodesUntargetedNodesKeepLocalEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := ringGraph(100)
	h := RewireNodesLocal(g, []int{0}, 1, rng)
	// Edges far from node 0 must be intact.
	for i := 10; i < 90; i++ {
		if !h.HasEdge(i, i+1) {
			t.Fatalf("remote edge (%d,%d) was disturbed", i, i+1)
		}
	}
}

func TestRewireDeterministicWithSeed(t *testing.T) {
	g := ringGraph(40)
	h1 := RewireNodesLocal(g, []int{3, 7}, 2, rand.New(rand.NewSource(9)))
	h2 := RewireNodesLocal(g, []int{3, 7}, 2, rand.New(rand.NewSource(9)))
	e1, e2 := h1.Edges(), h2.Edges()
	if len(e1) != len(e2) {
		t.Fatal("nondeterministic size")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("nondeterministic rewiring")
		}
	}
}
