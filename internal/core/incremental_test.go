package core

import (
	"math/rand"
	"testing"

	"cirstag/internal/mat"
	"cirstag/internal/metrics"
)

// perturbRow returns a copy of the baseline output with one node's row
// shifted far off the manifold.
func perturbRow(b *Baseline, node int, delta float64) *mat.Dense {
	y := b.Input.Output.Clone()
	for c := 0; c < y.Cols; c++ {
		y.Set(node, c, y.At(node, c)+delta)
	}
	return y
}

// TestIncrementalSingleNodeMatchesFull is the incremental-equivalence
// acceptance test: after perturbing a single node's output row, the patched
// incremental re-score must rank the same top-20 nodes as a full recompute
// (100% overlap) and correlate strongly overall.
func TestIncrementalSingleNodeMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// 20 strongly distorted nodes dominate the score ranking with a wide
	// margin in both the full and incremental runs.
	distorted := map[int]bool{}
	for len(distorted) < 20 {
		distorted[rng.Intn(150)] = true
	}
	in := syntheticInput(rng, 150, distorted)
	base, err := NewBaseline(in, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	// Perturb one already-distorted node further; topology and features are
	// untouched, so only G_Y needs repair.
	// Smallest distorted node — chosen deterministically (map iteration
	// order is randomized, and the patch-approximation thresholds below are
	// only meaningful against a fixed perturbation).
	node := -1
	for d := range distorted {
		if node < 0 || d < node {
			node = d
		}
	}
	newY := perturbRow(base, node, 3.0)

	inc, info, err := base.RunIncremental(newY, IncrementalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.FullRebuild || info.ReusedBaseline {
		t.Fatalf("expected the patch path, got %+v", info)
	}
	if len(info.ChangedNodes) != 1 || info.ChangedNodes[0] != node {
		t.Fatalf("changed nodes = %v, want [%d]", info.ChangedNodes, node)
	}

	full, err := Run(Input{Graph: in.Graph, Output: newY, Features: in.Features}, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	fullTop := topSet(Rank(full.NodeScores, nil), 20)
	incTop := topSet(Rank(inc.NodeScores, nil), 20)
	var overlap int
	for p := range fullTop {
		if incTop[p] {
			overlap++
		}
	}
	if overlap != 20 {
		t.Fatalf("top-20 overlap %d/20 between incremental and full recompute", overlap)
	}
	// Approximation bound beyond the top set: the full score vectors must
	// stay strongly rank-correlated.
	if rho := metrics.Spearman(full.NodeScores, inc.NodeScores); rho < 0.9 {
		t.Fatalf("Spearman between incremental and full scores = %v, want >= 0.9", rho)
	}
}

// TestIncrementalNoChangeReusesBaseline: below-tolerance perturbations return
// a copy of the baseline Result without any recomputation — equal in every
// byte, but storage-disjoint from the retained baseline.
func TestIncrementalNoChangeReusesBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	in := syntheticInput(rng, 80, nil)
	base, err := NewBaseline(in, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	y := in.Output.Clone()
	// Shift every entry by far less than RelTol·max|Y|.
	for i := range y.Data {
		y.Data[i] += 1e-15
	}
	res, info, err := base.RunIncremental(y, IncrementalOptions{RelTol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if !info.ReusedBaseline || len(info.ChangedNodes) != 0 {
		t.Fatalf("info = %+v, want baseline reuse", info)
	}
	if res == base.Result {
		t.Fatal("reused-baseline path must return a copy, not the retained Result pointer")
	}
	resultsIdentical(t, res, base.Result)
}

// TestIncrementalResultNotAliased is the aliasing regression test: every
// Result handed out by RunIncremental (reused-baseline and patch paths alike)
// must share no storage with the retained baseline, so a caller mutating its
// result cannot silently corrupt later incremental runs.
func TestIncrementalResultNotAliased(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	in := syntheticInput(rng, 100, map[int]bool{3: true, 40: true})
	base, err := NewBaseline(in, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	pristine := base.Result.Clone()

	vandalize := func(res *Result) {
		for i := range res.NodeScores {
			res.NodeScores[i] = -1
		}
		for i := range res.EdgeScores {
			res.EdgeScores[i].Score = -1
		}
		for i := range res.Eigenvalues {
			res.Eigenvalues[i] = -1
		}
		for _, v := range res.Eigenvectors {
			for i := range v {
				v[i] = -1
			}
		}
		if res.Embedding != nil {
			for i := range res.Embedding.Data {
				res.Embedding.Data[i] = -1
			}
		}
		if res.OutputManifold != nil {
			res.OutputManifold.AddEdge(0, 1, 1e9)
		}
		if res.InputManifold != nil {
			res.InputManifold.AddEdge(0, 2, 1e9)
		}
	}

	// Reused-baseline path.
	res, info, err := base.RunIncremental(in.Output.Clone(), IncrementalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.ReusedBaseline {
		t.Fatalf("info = %+v, want baseline reuse", info)
	}
	vandalize(res)
	resultsIdentical(t, base.Result, pristine)

	// Patch path: the result's embedding and manifolds must also be copies.
	newY := perturbRow(base, 3, 2.5)
	res, info, err = base.RunIncremental(newY, IncrementalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.ReusedBaseline || info.FullRebuild {
		t.Fatalf("info = %+v, want the patch path", info)
	}
	if res.Embedding == base.Result.Embedding {
		t.Fatal("patched Result aliases the baseline embedding")
	}
	vandalize(res)
	resultsIdentical(t, base.Result, pristine)

	// The baseline must still produce a correct incremental run after all
	// that mutation of handed-out results.
	if _, _, err := base.RunIncremental(newY, IncrementalOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalDriftFlagsRows: repeated steps each under tolerance must not
// accumulate unbounded drift — once a row's cumulative displacement since the
// last rebase crosses tolerance, it is flagged as changed even though no
// single step moved it that far.
func TestIncrementalDriftFlagsRows(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	in := syntheticInput(rng, 80, nil)
	base, err := NewBaseline(in, Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	const relTol = 1e-3
	iopts := IncrementalOptions{RelTol: relTol}
	maxA := base.Input.Output.MaxAbs()
	shift := 0.6 * relTol * maxA // per-step: under tolerance, two steps: over

	step := func() (*IncrementalInfo, *mat.Dense) {
		y := base.Input.Output.Clone()
		for c := 0; c < y.Cols; c++ {
			y.Set(7, c, y.At(7, c)+shift)
		}
		res, info, err := base.RunIncremental(y, iopts)
		if err != nil {
			t.Fatal(err)
		}
		if err := base.Advance(y, res, info); err != nil {
			t.Fatal(err)
		}
		return info, y
	}

	info, _ := step()
	if !info.ReusedBaseline || len(info.ChangedNodes) != 0 {
		t.Fatalf("step 1 info = %+v, want baseline reuse (single sub-tolerance move)", info)
	}
	info, _ = step()
	if info.ReusedBaseline || len(info.ChangedNodes) != 1 || info.ChangedNodes[0] != 7 {
		t.Fatalf("step 2 info = %+v, want row 7 flagged by cumulative drift", info)
	}
	// The flagged row was re-anchored by the patch: the next identical step
	// is sub-tolerance again.
	info, _ = step()
	if !info.ReusedBaseline {
		t.Fatalf("step 3 info = %+v, want baseline reuse after the drift rebase", info)
	}
}

// TestIncrementalDriftGuardRebuild: when sub-tolerance movement accumulates
// across many rows, the cumulative-drift guard must abandon baseline reuse
// for a full rebuild that is bit-identical to a fresh Run on the new output.
func TestIncrementalDriftGuardRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	in := syntheticInput(rng, 90, nil)
	base, err := NewBaseline(in, Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	const relTol = 1e-3
	iopts := IncrementalOptions{RelTol: relTol}
	maxA := base.Input.Output.MaxAbs()
	// Every row moves 0.4·tol per step: no row ever crosses tolerance on its
	// own, but the summed drift (0.4·tol·n) is past MaxDriftFrac (0.25)
	// immediately.
	y := base.Input.Output.Clone()
	for i := range y.Data {
		y.Data[i] += 0.4 * relTol * maxA
	}
	res, info, err := base.RunIncremental(y, iopts)
	if err != nil {
		t.Fatal(err)
	}
	if !info.FullRebuild || !info.DriftRebuild {
		t.Fatalf("info = %+v, want a drift-guard full rebuild", info)
	}
	if len(info.ChangedNodes) != 0 {
		t.Fatalf("changed nodes = %v, want none (all rows sub-tolerance)", info.ChangedNodes)
	}
	full, err := Run(Input{Graph: in.Graph, Output: y, Features: in.Features}, Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, res, full)

	// Advancing over the rebuild resets the drift ledger: the same step again
	// is plain baseline reuse.
	if err := base.Advance(y, res, info); err != nil {
		t.Fatal(err)
	}
	_, info, err = base.RunIncremental(y.Clone(), iopts)
	if err != nil {
		t.Fatal(err)
	}
	if !info.ReusedBaseline {
		t.Fatalf("post-rebuild info = %+v, want baseline reuse", info)
	}
}

// TestAdvanceRebasesBaseline: after Advance the next diff is taken against
// the advanced output, and the advanced state is storage-disjoint from the
// caller's matrices and results.
func TestAdvanceRebasesBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	in := syntheticInput(rng, 100, map[int]bool{9: true})
	base, err := NewBaseline(in, Options{Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	newY := perturbRow(base, 9, 2.0)
	res, info, err := base.RunIncremental(newY, IncrementalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.ChangedNodes) != 1 || info.ChangedNodes[0] != 9 {
		t.Fatalf("changed = %v, want [9]", info.ChangedNodes)
	}
	if err := base.Advance(newY, res, info); err != nil {
		t.Fatal(err)
	}
	if base.Input.Output == newY || base.Result == res {
		t.Fatal("Advance must clone the output and result, not retain the caller's pointers")
	}
	// Same output again: now a no-op relative to the advanced baseline.
	_, info, err = base.RunIncremental(newY.Clone(), IncrementalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.ReusedBaseline {
		t.Fatalf("info = %+v, want baseline reuse after Advance", info)
	}
	// Stale info (from before the Advance) must be rejected by a later
	// baseline of different shape, and nil res/info must error.
	if err := base.Advance(newY, nil, info); err == nil {
		t.Fatal("Advance accepted a nil Result")
	}
	if err := base.Advance(newY, res, nil); err == nil {
		t.Fatal("Advance accepted a nil IncrementalInfo")
	}
}

// TestIncrementalFullRebuildBitIdentical: when too many nodes move, the
// fallback rebuild must be bit-identical to a fresh full Run on the new
// output (same RNG stream assignment).
func TestIncrementalFullRebuildBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	in := syntheticInput(rng, 100, nil)
	base, err := NewBaseline(in, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Move half the rows: well past the default MaxChangedFrac of 0.25.
	y := in.Output.Clone()
	for i := 0; i < 50; i++ {
		for c := 0; c < y.Cols; c++ {
			y.Set(i, c, y.At(i, c)+1+float64(c))
		}
	}
	inc, info, err := base.RunIncremental(y, IncrementalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.FullRebuild {
		t.Fatalf("info = %+v, want full rebuild", info)
	}
	full, err := Run(Input{Graph: in.Graph, Output: y, Features: in.Features}, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, inc, full)
	oe, ie := full.OutputManifold.Edges(), inc.OutputManifold.Edges()
	if len(oe) != len(ie) {
		t.Fatalf("output manifold edge counts %d vs %d", len(ie), len(oe))
	}
	for i := range oe {
		if oe[i] != ie[i] {
			t.Fatalf("output manifold edge %d: %+v vs %+v", i, ie[i], oe[i])
		}
	}
}

// topSet returns the first k ranked node ids as a set.
func topSet(r *Ranking, k int) map[int]bool {
	out := make(map[int]bool, k)
	for i := 0; i < k && i < len(r.Order); i++ {
		out[r.Order[i]] = true
	}
	return out
}
