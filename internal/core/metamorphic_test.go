package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestRunScaleMetamorphic scales the GNN output Y by 2. DMD is a ratio of
// output to input distances (SAGMAN), so a uniform scale of Y must scale
// every score uniformly: G_Y's weights 1/d² become a quarter, so each
// generalized eigenvalue ζ of L_Y⁺·L_X becomes 4ζ, each L_Y-normalized
// eigenvector v becomes 2v, and each score ‖V_sᵀ·e_pq‖² with V_s = [v·√ζ]
// becomes 16 times its value. Scaling by a power of two is exact in floating
// point, so this holds bit for bit and the ranking is unchanged. The inputs
// have no coincident output rows, because the kNN distance floor is
// absolute and would not scale.
func TestRunScaleMetamorphic(t *testing.T) {
	cases := []struct {
		name string
		in   Input
		opts Options
	}{
		{"synthetic", syntheticInput(rand.New(rand.NewSource(140)), 80, map[int]bool{4: true, 33: true, 61: true}), Options{Seed: 1}},
		{"ss_pcm", ssPCMInput(t), cliOptions},
	}
	for _, c := range cases {
		base, err := Run(c.in, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		scaled := c.in
		scaled.Output = c.in.Output.Clone()
		scaled.Output.ScaleMat(2)
		got, err := Run(scaled, c.opts)
		if err != nil {
			t.Fatalf("%s, 2·Y: %v", c.name, err)
		}
		if len(got.Eigenvalues) != len(base.Eigenvalues) {
			t.Fatalf("%s: %d eigenvalues, want %d", c.name, len(got.Eigenvalues), len(base.Eigenvalues))
		}
		for i, z := range base.Eigenvalues {
			if math.Float64bits(got.Eigenvalues[i]) != math.Float64bits(4*z) {
				t.Fatalf("%s: ζ%d = %v under 2·Y, want exactly 4 × %v", c.name, i+1, got.Eigenvalues[i], z)
			}
		}
		for p, s := range base.NodeScores {
			if math.Float64bits(got.NodeScores[p]) != math.Float64bits(16*s) {
				t.Fatalf("%s: node %d scores %v under 2·Y, want exactly 16 × %v", c.name, p, got.NodeScores[p], s)
			}
		}
	}
}
