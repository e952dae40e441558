package core

import (
	"math"

	"cirstag/internal/cirerr"
	"cirstag/internal/graph"
	"cirstag/internal/mat"
	"cirstag/internal/obs"
	"cirstag/internal/parallel"
	"cirstag/internal/pgm"
)

// Incremental re-analysis: after a perturbation that leaves the circuit graph
// and node features untouched but moves the GNN output rows of a few nodes
// (e.g. a capacitance change re-predicted through the same model), the input
// manifold and Phase-1 embedding are still valid. RunIncremental reuses them
// from a retained Baseline and only repairs the output manifold around the
// nodes whose embeddings actually moved, skipping Phases 1–2 entirely.
var (
	incRuns          = obs.NewCounter("core.incremental.runs")
	incChangedNodes  = obs.NewCounter("core.incremental.changed_nodes")
	incFullRebuilds  = obs.NewCounter("core.incremental.full_rebuilds")
	incDriftRebuilds = obs.NewCounter("core.incremental.drift_rebuilds")
	incDriftFlagged  = obs.NewCounter("core.incremental.drift_flagged")
	incAdvances      = obs.NewCounter("core.incremental.advances")
)

// Baseline retains everything a full Run consumed and produced, so later
// perturbed outputs can be re-scored incrementally against it. RunIncremental
// never mutates the baseline; to chain a sequence of steps — so step N+1
// diffs against step N instead of step 0 — rebase it explicitly with Advance.
type Baseline struct {
	Input  Input
	Opts   Options // post-withDefaults, as the run used them
	Result *Result
	// drift[i] accumulates node i's sub-tolerance row displacement since its
	// manifold coordinates were last refreshed (baseline construction, a
	// patch covering the node, or a full rebuild). Updated only by Advance;
	// nil until a sequence starts advancing. Without it, a long sequence of
	// individually sub-tolerance steps would report ReusedBaseline forever
	// while the output wanders arbitrarily far from the scored manifold.
	drift mat.Vec
}

// NewBaseline executes a full Run and retains its inputs and result.
func NewBaseline(in Input, opts Options) (*Baseline, error) {
	res, err := Run(in, opts)
	if err != nil {
		return nil, err
	}
	return &Baseline{Input: in, Opts: opts.withDefaults(), Result: res}, nil
}

// IncrementalOptions tunes the incremental re-analysis.
type IncrementalOptions struct {
	// RelTol is the row-change threshold relative to the largest absolute
	// entry of the baseline output: a node counts as changed when any entry
	// of its row moved by more than RelTol·max|Y|, or when its accumulated
	// sub-tolerance drift since the last rebase crosses the same bound.
	// Default 1e-9.
	RelTol float64
	// MaxChangedFrac is the changed-node fraction above which the local
	// patch is abandoned for a full output-manifold rebuild (which is
	// bit-identical to a fresh Run). Default 0.25.
	MaxChangedFrac float64
	// MaxDriftFrac is the cumulative-drift guard: when the sub-tolerance
	// drift summed over all unchanged rows exceeds MaxDriftFrac·tol·n, the
	// patch is abandoned for the same bit-identical full rebuild, resetting
	// every row's accumulated staleness at once instead of letting many
	// almost-stale rows degrade the patch approximation together.
	// Default 0.25.
	MaxDriftFrac float64
}

func (o IncrementalOptions) withDefaults() IncrementalOptions {
	if o.RelTol <= 0 {
		o.RelTol = 1e-9
	}
	if o.MaxChangedFrac <= 0 {
		o.MaxChangedFrac = 0.25
	}
	if o.MaxDriftFrac <= 0 {
		o.MaxDriftFrac = 0.25
	}
	return o
}

// IncrementalInfo reports which path an incremental run took.
type IncrementalInfo struct {
	// ChangedNodes lists the nodes whose output rows moved beyond tolerance
	// (directly, or cumulatively since the last rebase), ascending.
	ChangedNodes []int
	// ReusedBaseline is true when nothing moved beyond tolerance and a copy
	// of the baseline Result was returned.
	ReusedBaseline bool
	// FullRebuild is true when the output manifold was rebuilt from scratch
	// instead of patched (changed fraction or drift guard).
	FullRebuild bool
	// DriftRebuild is true when the rebuild was forced by the cumulative
	// drift guard rather than the changed-node fraction.
	DriftRebuild bool

	// Bookkeeping consumed by Baseline.Advance: the per-row displacement of
	// this step and the absolute tolerance it was judged against.
	disp mat.Vec
	tol  float64
}

// RunIncremental re-scores the baseline circuit against a perturbed GNN
// output matrix. The circuit graph, features, options, and seed are taken
// from the baseline, so the input manifold and spectral embedding are reused
// without recomputation; only the output manifold is refreshed:
//
//   - no row moved beyond tolerance → a copy of the baseline Result is
//     returned;
//   - a small set of rows moved → the baseline G_Y is locally patched
//     (pgm.PatchKNN) around those nodes and the eigensolve warm-starts from
//     the baseline eigenvectors, an approximation that is exact on the
//     unchanged subgraph;
//   - too many rows moved, or the cumulative sub-tolerance drift guard
//     tripped → G_Y is rebuilt from scratch on its own RNG stream and the
//     eigensolve runs cold, making the result bit-identical to a full Run
//     on the new output.
//
// The baseline itself is never mutated: every returned Result is storage-
// disjoint from b.Result, and the diff is always taken against the retained
// b.Input.Output. Sequences that want step N+1 to diff against step N must
// rebase with Advance between steps.
func (b *Baseline) RunIncremental(newOutput *mat.Dense, iopts IncrementalOptions) (res *Result, info *IncrementalInfo, err error) {
	defer cirerr.RecoverTo(&err, "core.incremental")
	if b == nil || b.Result == nil {
		return nil, nil, cirerr.New("core.incremental", cirerr.ErrBadInput, "incremental run requires a baseline")
	}
	n := b.Input.Graph.N()
	if newOutput == nil || newOutput.Rows != n || newOutput.Cols != b.Input.Output.Cols {
		return nil, nil, cirerr.New("core.incremental", cirerr.ErrBadInput, "perturbed output must be %dx%d", n, b.Input.Output.Cols)
	}
	if r, c := newOutput.FirstNonFinite(); r >= 0 {
		return nil, nil, cirerr.New("core.incremental", cirerr.ErrBadInput, "perturbed output entry (%d,%d) is %v; GNN output must be finite", r, c, newOutput.At(r, c))
	}
	iopts = iopts.withDefaults()
	incRuns.Inc()

	root := b.Opts.startRoot("core.incremental")
	defer root.End()

	// Per-row displacement against the retained baseline, judged against the
	// patch tolerance together with each row's accumulated drift: a row is
	// "changed" when this step alone moved it beyond tolerance or when its
	// total sub-tolerance movement since the last rebase crossed the bound.
	ds := root.Child("diff")
	disp := rowDisplacements(b.Input.Output, newOutput)
	tol := iopts.RelTol * maxAbsDense(b.Input.Output)
	var changed []int
	var driftSum float64
	for i, d := range disp {
		total := d
		if b.drift != nil {
			total += b.drift[i]
		}
		if d > tol || total > tol {
			changed = append(changed, i)
			if d <= tol {
				incDriftFlagged.Inc()
			}
			continue
		}
		driftSum += total
	}
	ds.End()
	info = &IncrementalInfo{ChangedNodes: changed, disp: disp, tol: tol}
	incChangedNodes.Add(int64(len(changed)))

	// Cumulative-drift guard: when the sub-tolerance movement accumulated
	// across unchanged rows crosses MaxDriftFrac·tol·n, the patch (or the
	// baseline reuse — many rows each just under tolerance are still a
	// materially stale manifold) is abandoned for a bit-identical full
	// rebuild that re-anchors every row at once.
	driftRebuild := tol > 0 && driftSum > iopts.MaxDriftFrac*tol*float64(n)

	if len(changed) == 0 && !driftRebuild {
		info.ReusedBaseline = true
		return b.Result.Clone(), info, nil
	}

	// The eigensolve consumes RNG stream 3 in a full Run, after streams 0–2
	// drove the (here skipped) embedding and manifold builds; recreating the
	// same stream assignment keeps the full-rebuild path bit-identical to
	// Run(Input{..., newOutput}, b.Opts).
	rngGY := parallel.NewRNG(b.Opts.Seed, 2)
	rngEig := parallel.NewRNG(b.Opts.Seed, 3)

	gySpan := root.Child("output_manifold")
	popts := pgm.Options{K: knnK, AvgDegree: b.Opts.AvgDegree, Span: gySpan}
	var newGY *graph.Graph
	patched := false
	if float64(len(changed)) > iopts.MaxChangedFrac*float64(n) || driftRebuild {
		info.FullRebuild = true
		info.DriftRebuild = driftRebuild
		incFullRebuilds.Inc()
		if driftRebuild {
			incDriftRebuilds.Inc()
		}
		newGY = pgm.Build(newOutput, rngGY, popts)
	} else {
		patched = true
		newGY = pgm.PatchKNN(b.Result.OutputManifold, newOutput, changed, popts)
	}
	gySpan.End()

	// The patch path warm-starts Phase 3 from the baseline's generalized
	// eigenvectors — the perturbed subspace is mostly a small rotation of the
	// retained one — while every bit-identity path solves cold. The stale
	// subspace cannot span a *new* instability the perturbation created (a
	// localized eigenvector around a moved node), so the warm block is
	// augmented with spike probes at the changed nodes; with those on board
	// the Rayleigh–Ritz refinement typically certifies in one round.
	var warm []mat.Vec
	if patched && len(b.Result.Eigenvectors) > 0 {
		warm = make([]mat.Vec, 0, 2*len(b.Result.Eigenvectors))
		warm = append(warm, b.Result.Eigenvectors...)
		maxSpikes := len(b.Result.Eigenvectors)
		for i, c := range changed {
			if i >= maxSpikes {
				break
			}
			spike := make(mat.Vec, n)
			spike[c] = 1
			warm = append(warm, spike)
		}
	}
	// The input manifold is cloned before it enters the result: scorePhase
	// stores its gx argument in the Result, and handing out the baseline's
	// own graph would let callers mutate retained state.
	res, err = scorePhase(b.Result.InputManifold.Clone(), newGY, n, b.Opts, rngEig, root, warm)
	if err != nil {
		return nil, nil, err
	}
	if b.Result.Embedding != nil {
		res.Embedding = b.Result.Embedding.Clone()
	}
	return res, info, nil
}

// Advance rebases the baseline on the outcome of an incremental step: the
// retained output and Result become (copies of) the step's, so the next
// RunIncremental diffs against this step instead of the original run, and the
// per-row drift ledger is rolled forward — rows the step patched or rebuilt
// reset to zero, rows it skipped accumulate their sub-tolerance displacement.
// res and info must come from a RunIncremental(newOutput, ...) call on this
// baseline, with no Advance in between.
func (b *Baseline) Advance(newOutput *mat.Dense, res *Result, info *IncrementalInfo) error {
	if b == nil || b.Result == nil {
		return cirerr.New("core.incremental", cirerr.ErrBadInput, "advance requires a baseline")
	}
	n := b.Input.Graph.N()
	if newOutput == nil || newOutput.Rows != n || newOutput.Cols != b.Input.Output.Cols {
		return cirerr.New("core.incremental", cirerr.ErrBadInput, "advance output must be %dx%d", n, b.Input.Output.Cols)
	}
	if res == nil || info == nil || len(info.disp) != n {
		return cirerr.New("core.incremental", cirerr.ErrBadInput, "advance needs the Result and IncrementalInfo of an incremental run on this baseline")
	}
	incAdvances.Inc()
	if info.FullRebuild {
		// Every row's manifold coordinates were refreshed from newOutput.
		b.drift = nil
	} else {
		if b.drift == nil {
			b.drift = make(mat.Vec, n)
		}
		for _, c := range info.ChangedNodes {
			b.drift[c] = 0
		}
		isChanged := make([]bool, n)
		for _, c := range info.ChangedNodes {
			isChanged[c] = true
		}
		for i := range b.drift {
			if !isChanged[i] {
				b.drift[i] += info.disp[i]
			}
		}
	}
	b.Input.Output = newOutput.Clone()
	b.Result = res.Clone()
	return nil
}

// rowDisplacements returns, per row, the largest absolute entry difference
// between oldY and newY — the displacement measure the tolerance and drift
// accounting are defined on. (Summing per-step maxima is a conservative
// proxy for total row movement: steps that cancel still accumulate.)
func rowDisplacements(oldY, newY *mat.Dense) mat.Vec {
	disp := make(mat.Vec, oldY.Rows)
	for i := 0; i < oldY.Rows; i++ {
		ro, rn := oldY.Row(i), newY.Row(i)
		var d float64
		for c := range ro {
			if a := math.Abs(ro[c] - rn[c]); a > d {
				d = a
			}
		}
		disp[i] = d
	}
	return disp
}

func maxAbsDense(m *mat.Dense) float64 {
	var maxAbs float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	return maxAbs
}
