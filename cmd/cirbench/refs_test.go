package main

import (
	"testing"

	"cirstag/internal/circuit"
)

func TestRefSeedCyclesThroughReferenceSeeds(t *testing.T) {
	for seed, want := range map[int64]int64{1: 1, 2: 2, 3: 1, 4: 2, 0: 2, -1: 1, 1001: 1} {
		if got := refSeed(seed); got != want {
			t.Errorf("refSeed(%d) = %d, want %d", seed, got, want)
		}
	}
}

// Every committed reference must rank each pin of its design exactly once.
func TestReferencesArePermutationsOfPins(t *testing.T) {
	for _, seed := range refSeeds {
		for _, name := range append(append([]string(nil), analyzeDesigns...), largeDesigns...) {
			order, err := loadRef(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			nl, err := circuit.BenchmarkByName(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(order) != nl.NumPins() {
				t.Errorf("%s seed %d: reference ranks %d nodes, design has %d pins", name, seed, len(order), nl.NumPins())
				continue
			}
			seen := make([]bool, len(order))
			for _, v := range order {
				if v < 0 || v >= len(order) || seen[v] {
					t.Errorf("%s seed %d: node %d out of range or repeated", name, seed, v)
					break
				}
				seen[v] = true
			}
		}
	}
}
