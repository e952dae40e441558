// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation section on the synthetic substrate
// (circuit generator + STA oracle + in-repo GNNs), exposing one Run function
// per artifact plus formatting helpers that print paper-style rows. Both
// cmd/experiments and the repository's testing.B benchmarks drive these
// functions.
package bench

import (
	"fmt"
	"math/rand"

	"cirstag/internal/cache"
	"cirstag/internal/circuit"
	"cirstag/internal/core"
	"cirstag/internal/mat"
	"cirstag/internal/obs"
	"cirstag/internal/parallel"
	"cirstag/internal/perturb"
	"cirstag/internal/sta"
	"cirstag/internal/timing"
)

// CaseAConfig parameterizes the Case Study A (timing stability) experiments.
type CaseAConfig struct {
	// Benchmarks selects designs by name from circuit.StandardBenchmarks().
	// Empty selects the first three (laptop-friendly); cmd/experiments
	// passes all nine.
	Benchmarks []string
	Seed       int64
	// Scales are the capacitance scaling factors (paper: 5x and 10x).
	Scales []float64
	// Pcts are the perturbed-node percentages (paper: 5, 10, 15).
	Pcts []float64
	// Timing configures the per-design GNN training.
	Timing timing.Config
	// Cirstag configures the stability analysis.
	Cirstag core.Options
	// SkipDimReduction switches the input manifold to the raw circuit graph
	// (the Fig. 4 ablation).
	SkipDimReduction bool
	// Cache, when non-nil, persists trained GNN weights and CirSTAG
	// artifacts across experiment runs (forwarded to timing.NewCached and
	// core.Options.Cache).
	Cache *cache.Store
}

func (c CaseAConfig) withDefaults() CaseAConfig {
	if len(c.Benchmarks) == 0 {
		for _, s := range circuit.StandardBenchmarks()[:3] {
			c.Benchmarks = append(c.Benchmarks, s.Name)
		}
	}
	if len(c.Scales) == 0 {
		c.Scales = []float64{5, 10}
	}
	if len(c.Pcts) == 0 {
		c.Pcts = []float64{5, 10, 15}
	}
	if c.Cirstag.FeatureAlpha <= 0 {
		// Case Study A perturbs node features, so the input manifold must
		// reflect them: augment the spectral embedding with standardized
		// features (paper §IV-A considers structure and features jointly).
		c.Cirstag.FeatureAlpha = 1
	}
	return c
}

// TableIRow is one cell group of Table I: relative arrival-time changes at
// primary outputs when perturbing unstable vs stable nodes.
type TableIRow struct {
	Design       string
	R2           float64 // GNN fidelity on this design
	Scale        float64
	Pct          float64
	UnstableMean float64
	UnstableMax  float64
	StableMean   float64
	StableMax    float64
	// Ground-truth STA counterparts of the means, from re-running STA on the
	// same perturbed designs (the GNN remains the primary simulator, as in
	// the paper).
	STAUnstableMean float64
	STAStableMean   float64
}

// CaseAPipeline bundles the per-design state shared by Table I, Fig. 3 and
// Fig. 4: the netlist, the trained GNN, and the CirSTAG ranking.
type CaseAPipeline struct {
	Netlist *circuit.Netlist
	Model   *timing.Model
	Result  *core.Result
	Ranking *core.Ranking
	R2      float64
	base    *timing.Prediction
	baseSTA *sta.Result
}

// NewCaseAPipeline generates the named benchmark, trains the timing GNN and
// runs CirSTAG once.
func NewCaseAPipeline(name string, cfg CaseAConfig) (*CaseAPipeline, error) {
	cfg = cfg.withDefaults()
	nl, err := circuit.BenchmarkByName(name, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tcfg := cfg.Timing
	tcfg.Seed = cfg.Seed
	model, cached, err := timing.NewCached(nl, tcfg, cfg.Cache)
	if err != nil {
		return nil, err
	}
	if cached {
		obs.Debugf("bench: loaded cached timing GNN for %s", name)
	}
	r2, err := model.EvalR2(3, rand.New(rand.NewSource(cfg.Seed+1000)))
	if err != nil {
		return nil, err
	}
	basePred := model.Predict(nl)
	baseSTA, err := sta.Analyze(nl)
	if err != nil {
		return nil, err
	}
	copts := cfg.Cirstag
	copts.Seed = cfg.Seed
	copts.SkipDimReduction = cfg.SkipDimReduction
	copts.Cache = cfg.Cache
	res, err := core.Run(core.Input{
		Graph:    nl.PinGraph(),
		Output:   basePred.Embeddings,
		Features: nl.Features(),
	}, copts)
	if err != nil {
		return nil, err
	}
	// Rank only perturbable nodes: primary-output pins are excluded (as in
	// the paper) and so are output pins generally, since only input pins
	// carry the capacitance being perturbed — this keeps the unstable and
	// stable selections the same size and the comparison fair.
	exclude := perturb.PrimaryOutputPinSet(nl)
	for _, pin := range nl.Pins {
		if pin.Dir != circuit.DirIn {
			exclude[pin.ID] = true
		}
	}
	ranking := core.Rank(res.NodeScores, exclude)
	return &CaseAPipeline{
		Netlist: nl, Model: model, Result: res, Ranking: ranking,
		R2: r2, base: basePred, baseSTA: baseSTA,
	}, nil
}

// perturbSet scales the caps of the input pins within the given ranked node
// subset and returns the GNN-predicted relative PO change plus the STA
// ground truth. The model is passed explicitly so concurrent callers can
// supply independent inference forks of p.Model.
func (p *CaseAPipeline) perturbSet(model *timing.Model, nodes []int, scale float64) (gnnMean, gnnMax, staMean, staMax float64) {
	pins := perturb.InputPinsOnly(p.Netlist, nodes)
	variant := perturb.ScaleCaps(p.Netlist, pins, scale)
	pred := model.Predict(variant)
	gnnMean, gnnMax = sta.RelativeChange(p.base.POArrivals(p.Netlist), pred.POArrivals(p.Netlist))
	if staRes, err := sta.Analyze(variant); err == nil {
		staMean, staMax = sta.RelativeChange(p.baseSTA.POArrivals(p.Netlist), staRes.POArrivals(p.Netlist))
	}
	return gnnMean, gnnMax, staMean, staMax
}

// Rows evaluates the full scale × pct grid for this design. The grid cells
// are independent re-simulations, so they fan out across the worker pool,
// each with its own inference fork of the trained model.
func (p *CaseAPipeline) Rows(cfg CaseAConfig) []TableIRow {
	cfg = cfg.withDefaults()
	type cell struct{ scale, pct float64 }
	var cells []cell
	for _, scale := range cfg.Scales {
		for _, pct := range cfg.Pcts {
			cells = append(cells, cell{scale, pct})
		}
	}
	return parallel.Map(len(cells), 1, func(i int) TableIRow {
		c := cells[i]
		model := p.Model.Fork()
		unstable := p.Ranking.TopPercent(c.pct)
		stable := p.Ranking.BottomPercent(c.pct)
		um, ux, usm, _ := p.perturbSet(model, unstable, c.scale)
		sm, sx, ssm, _ := p.perturbSet(model, stable, c.scale)
		return TableIRow{
			Design: p.Netlist.Name, R2: p.R2,
			Scale: c.scale, Pct: c.pct,
			UnstableMean: um, UnstableMax: ux,
			StableMean: sm, StableMax: sx,
			STAUnstableMean: usm, STAStableMean: ssm,
		}
	})
}

// RunTableI reproduces Table I over the configured benchmarks. Designs are
// fully independent (generation, training, ranking, perturbation), so they
// run concurrently; rows keep the configured benchmark order.
func RunTableI(cfg CaseAConfig) ([]TableIRow, error) {
	cfg = cfg.withDefaults()
	type result struct {
		rows []TableIRow
		err  error
	}
	results := parallel.Map(len(cfg.Benchmarks), 1, func(i int) result {
		p, err := NewCaseAPipeline(cfg.Benchmarks[i], cfg)
		if err != nil {
			return result{err: fmt.Errorf("bench: %s: %w", cfg.Benchmarks[i], err)}
		}
		return result{rows: p.Rows(cfg)}
	})
	var rows []TableIRow
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		rows = append(rows, r.rows...)
	}
	return rows, nil
}

// DistributionData backs Fig. 3 (and Fig. 4 via SkipDimReduction): the
// per-output relative arrival changes when perturbing the top-10% unstable
// vs bottom-10% stable nodes at 10x.
type DistributionData struct {
	Design   string
	Unstable mat.Vec // per-PO relative change, unstable perturbation
	Stable   mat.Vec // per-PO relative change, stable perturbation
	// Histograms over the union range (20 bins).
	Edges          mat.Vec
	UnstableCounts []int
	StableCounts   []int
}

// RunDistribution reproduces the Fig. 3 / Fig. 4 distribution experiment for
// one design: perturb the top (resp. bottom) pct% at the given scale and
// record the per-PO relative changes.
func RunDistribution(name string, cfg CaseAConfig, pct, scale float64) (*DistributionData, error) {
	p, err := NewCaseAPipeline(name, cfg)
	if err != nil {
		return nil, err
	}
	perPO := func(model *timing.Model, nodes []int) mat.Vec {
		pins := perturb.InputPinsOnly(p.Netlist, nodes)
		variant := perturb.ScaleCaps(p.Netlist, pins, scale)
		pred := model.Predict(variant)
		basePO := p.base.POArrivals(p.Netlist)
		newPO := pred.POArrivals(p.Netlist)
		out := make(mat.Vec, len(basePO))
		for i := range basePO {
			if basePO[i] != 0 {
				d := newPO[i] - basePO[i]
				if d < 0 {
					d = -d
				}
				out[i] = d / basePO[i]
			}
		}
		return out
	}
	d := &DistributionData{Design: name}
	// The unstable and stable re-simulations are independent; run them
	// concurrently on separate inference forks.
	parallel.Do(
		func() { d.Unstable = perPO(p.Model.Fork(), p.Ranking.TopPercent(pct)) },
		func() { d.Stable = perPO(p.Model.Fork(), p.Ranking.BottomPercent(pct)) },
	)
	all := append(d.Unstable.Clone(), d.Stable...)
	var edges mat.Vec
	edges, _ = histEdges(all, 20)
	d.Edges = edges
	d.UnstableCounts = histCounts(d.Unstable, edges)
	d.StableCounts = histCounts(d.Stable, edges)
	return d, nil
}

func histEdges(v mat.Vec, nbins int) (mat.Vec, float64) {
	lo, hi := 0.0, 0.0
	for _, x := range v {
		if x > hi {
			hi = x
		}
	}
	if hi == 0 {
		hi = 1
	}
	w := (hi - lo) / float64(nbins)
	edges := make(mat.Vec, nbins+1)
	for i := range edges {
		edges[i] = lo + float64(i)*w
	}
	return edges, w
}

func histCounts(v mat.Vec, edges mat.Vec) []int {
	nbins := len(edges) - 1
	counts := make([]int, nbins)
	if nbins < 1 {
		return counts
	}
	w := edges[1] - edges[0]
	for _, x := range v {
		b := int((x - edges[0]) / w)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		counts[b]++
	}
	return counts
}
