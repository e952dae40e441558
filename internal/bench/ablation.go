package bench

import (
	"fmt"
	"time"

	"cirstag/internal/circuit"
	"cirstag/internal/core"
	"cirstag/internal/metrics"
	"cirstag/internal/perturb"
)

// SparsifyAblationRow compares CirSTAG with η-pruned manifolds against dense
// kNN manifolds (the design choice that makes Phase 2 near-linear).
type SparsifyAblationRow struct {
	Design        string
	SparseSeconds float64
	DenseSeconds  float64
	SparseEdgesX  int // input-manifold edges after pruning
	DenseEdgesX   int
	// Spearman rank correlation between the two score vectors: high values
	// mean the cheap sparsified manifold preserves the instability ranking.
	RankCorrelation float64
}

// RunSparsifyAblation evaluates the sparsification design choice on one
// benchmark.
func RunSparsifyAblation(name string, seed int64, opts core.Options) (*SparsifyAblationRow, error) {
	nl, err := circuit.BenchmarkByName(name, seed)
	if err != nil {
		return nil, err
	}
	g := nl.PinGraph()
	y := untrainedEmbeddings(nl, seed)
	in := core.Input{Graph: g, Output: y, Features: nl.Features()}

	sparseOpts := opts
	sparseOpts.Seed = seed
	t0 := time.Now()
	sparseRes, err := core.Run(in, sparseOpts)
	if err != nil {
		return nil, err
	}
	sparseTime := time.Since(t0).Seconds()

	denseOpts := opts
	denseOpts.Seed = seed
	// A budget of 40·n/2 edges disables pruning: core's kNN graphs (k = 10)
	// have at most 10·n edges.
	denseOpts.AvgDegree = 40
	t1 := time.Now()
	denseRes, err := core.Run(in, denseOpts)
	if err != nil {
		return nil, err
	}
	denseTime := time.Since(t1).Seconds()

	return &SparsifyAblationRow{
		Design:          name,
		SparseSeconds:   sparseTime,
		DenseSeconds:    denseTime,
		SparseEdgesX:    sparseRes.InputManifold.M(),
		DenseEdgesX:     denseRes.InputManifold.M(),
		RankCorrelation: metrics.Spearman(sparseRes.NodeScores, denseRes.NodeScores),
	}, nil
}

// DimsAblationRow sweeps the embedding dimension M and score dimension s,
// reporting the unstable/stable separation each configuration achieves.
type DimsAblationRow struct {
	EmbedDims  int
	ScoreDims  int
	Separation float64 // unstable-mean / stable-mean relative PO change
}

// RunDimsAblation sweeps (M, s) on one design and measures how well each
// configuration separates unstable from stable nodes (at 10% / 10x).
func RunDimsAblation(name string, seed int64, embedDims, scoreDims []int, tcfg CaseAConfig) ([]DimsAblationRow, error) {
	var rows []DimsAblationRow
	for _, m := range embedDims {
		for _, s := range scoreDims {
			cfg := tcfg
			cfg.Seed = seed
			cfg.Cirstag.EmbedDims = m
			cfg.Cirstag.ScoreDims = s
			p, err := NewCaseAPipeline(name, cfg)
			if err != nil {
				return nil, err
			}
			um, _, _, _ := p.perturbSet(p.Model, p.Ranking.TopPercent(10), 10)
			sm, _, _, _ := p.perturbSet(p.Model, p.Ranking.BottomPercent(10), 10)
			sep := um / maxFloat(sm, 1e-9)
			rows = append(rows, DimsAblationRow{EmbedDims: m, ScoreDims: s, Separation: sep})
		}
	}
	return rows, nil
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// OutputManifoldAblationRow compares building the output manifold from the
// GNN's prediction outputs (arrival + slack, the default, mirroring the
// reference timing GNN whose embeddings feed the slack head directly)
// against building it from the intermediate GCN hidden states. The
// prediction-output manifold is what makes the instability ranking track
// timing sensitivity.
type OutputManifoldAblationRow struct {
	Design            string
	OutputsSeparation float64 // unstable/stable mean ratio with Y = [arr, slack]
	HiddenSeparation  float64 // same with Y = hidden states
}

// RunOutputManifoldAblation evaluates the output-manifold design choice on
// one benchmark at 10% / 10x.
func RunOutputManifoldAblation(name string, cfg CaseAConfig) (*OutputManifoldAblationRow, error) {
	cfg = cfg.withDefaults()
	p, err := NewCaseAPipeline(name, cfg)
	if err != nil {
		return nil, err
	}
	um, _, _, _ := p.perturbSet(p.Model, p.Ranking.TopPercent(10), 10)
	sm, _, _, _ := p.perturbSet(p.Model, p.Ranking.BottomPercent(10), 10)
	row := &OutputManifoldAblationRow{
		Design:            name,
		OutputsSeparation: um / maxFloat(sm, 1e-12),
	}
	// Re-rank with the hidden-state manifold, reusing the trained model.
	pred := p.Model.Predict(p.Netlist)
	copts := cfg.Cirstag
	copts.Seed = cfg.Seed
	res, err := core.Run(core.Input{
		Graph:    p.Netlist.PinGraph(),
		Output:   pred.Hidden,
		Features: p.Netlist.Features(),
	}, copts)
	if err != nil {
		return nil, err
	}
	exclude := perturb.PrimaryOutputPinSet(p.Netlist)
	for _, pin := range p.Netlist.Pins {
		if pin.Dir != circuit.DirIn {
			exclude[pin.ID] = true
		}
	}
	altRank := core.Rank(res.NodeScores, exclude)
	saved := p.Ranking
	p.Ranking = altRank
	um2, _, _, _ := p.perturbSet(p.Model, p.Ranking.TopPercent(10), 10)
	sm2, _, _, _ := p.perturbSet(p.Model, p.Ranking.BottomPercent(10), 10)
	p.Ranking = saved
	row.HiddenSeparation = um2 / maxFloat(sm2, 1e-12)
	return row, nil
}

// FormatOutputManifoldAblation renders the ablation row.
func FormatOutputManifoldAblation(r *OutputManifoldAblationRow) string {
	return fmt.Sprintf("Output-manifold ablation — %s\n  Y = prediction outputs [arrival, slack]: separation %.2f\n  Y = GCN hidden states:                   separation %.2f\n",
		r.Design, r.OutputsSeparation, r.HiddenSeparation)
}
