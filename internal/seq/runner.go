package seq

import (
	"fmt"
	"time"

	"cirstag/internal/circuit"
	"cirstag/internal/core"
	"cirstag/internal/mat"
	"cirstag/internal/obs"
	"cirstag/internal/perturb"
	"cirstag/internal/timing"
)

var (
	seqSteps  = obs.NewCounter("seq.steps")
	seqStepMS = obs.NewHistogram("seq.step_ms", obs.ExpBuckets(1, 4, 10)...)
)

// Predictor produces the GNN output matrix (CirSTAG's Y) for a netlist
// variant.
type Predictor interface {
	Outputs(nl *circuit.Netlist) (*mat.Dense, error)
}

// ModelPredictor adapts a trained timing model to the Predictor interface.
type ModelPredictor struct{ m *timing.Model }

// NewModelPredictor wraps a trained timing GNN.
func NewModelPredictor(m *timing.Model) *ModelPredictor { return &ModelPredictor{m: m} }

// Outputs runs inference and returns the prediction embeddings.
func (p *ModelPredictor) Outputs(nl *circuit.Netlist) (*mat.Dense, error) {
	return p.m.Predict(nl).Embeddings, nil
}

// Options configures a sequence run.
type Options struct {
	// Core configures the step-0 baseline analysis (and thereby every
	// incremental step, which inherits seed and dimensions from the baseline).
	Core core.Options
	// Inc tunes the per-step incremental re-analysis.
	Inc core.IncrementalOptions
	// Span, when non-nil, parents the per-step "seq.step" spans (and the
	// baseline's "core.run") so a host process can keep concurrent sequences'
	// spans in separate subtrees. Nil records them as root spans.
	Span *obs.Span
}

// StepReport is the per-step outcome of a sequence run.
type StepReport struct {
	// Index is the step's position in the script, 0-based.
	Index int `json:"index"`
	// Op echoes the step's operation.
	Op string `json:"op"`
	// ChangedNodes is how many manifold nodes moved beyond tolerance.
	ChangedNodes int `json:"changed_nodes"`
	// ReusedBaseline / FullRebuild / DriftRebuild mirror core.IncrementalInfo:
	// which of the three incremental paths the step took.
	ReusedBaseline bool `json:"reused_baseline,omitempty"`
	FullRebuild    bool `json:"full_rebuild,omitempty"`
	DriftRebuild   bool `json:"drift_rebuild,omitempty"`
	// LatencyMS is the wall time of the step: edit application, inference,
	// and incremental re-scoring.
	LatencyMS float64 `json:"latency_ms"`
	// TopNode and TopScore identify the most unstable node after this step.
	TopNode  int     `json:"top_node"`
	TopScore float64 `json:"top_score"`
}

// Path names the incremental path a step took, for reports and logs.
func (r StepReport) Path() string {
	switch {
	case r.ReusedBaseline:
		return "reuse"
	case r.DriftRebuild:
		return "drift-rebuild"
	case r.FullRebuild:
		return "rebuild"
	default:
		return "patch"
	}
}

// Result is everything a sequence run produced.
type Result struct {
	// Name echoes the script name.
	Name string `json:"name,omitempty"`
	// Steps holds one report per script step, in order.
	Steps []StepReport `json:"steps"`
	// Final is the stability result after the last step.
	Final *core.Result `json:"-"`
	// FinalNetlist is the design after the last step.
	FinalNetlist *circuit.Netlist `json:"-"`
}

// Run scores one transformation sequence: a full baseline analysis of nl,
// then for each script step an edit application, a fresh model inference, and
// an incremental re-score chained forward with Baseline.Advance. The input
// manifold stays pinned at the step-0 design (see the package comment); the
// per-step result reflects the output manifold of the edited design against
// it. Deterministic given (nl, script, predictor, options).
func Run(nl *circuit.Netlist, script *Script, pred Predictor, opts Options) (*Result, error) {
	if err := script.Validate(nl); err != nil {
		return nil, err
	}
	if opts.Core.Span == nil {
		opts.Core.Span = opts.Span
	}
	y0, err := pred.Outputs(nl)
	if err != nil {
		return nil, err
	}
	base, err := core.NewBaseline(core.Input{
		Graph:    nl.PinGraph(),
		Output:   y0,
		Features: nl.Features(),
	}, opts.Core)
	if err != nil {
		return nil, err
	}
	exclude := perturb.PrimaryOutputPinSet(nl)
	var steps []StepReport
	for i, st := range script.Steps {
		stepSpan := startSpan(opts.Span, "seq.step")
		base.Opts.Span = stepSpan
		t0 := time.Now()
		next := Apply(nl, st, stepRNG(script.Seed, i))
		y, err := pred.Outputs(next)
		if err != nil {
			stepSpan.End()
			return nil, fmt.Errorf("seq: step %d (%s) inference: %w", i, st.Op, err)
		}
		res, info, err := base.RunIncremental(y, opts.Inc)
		if err != nil {
			stepSpan.End()
			return nil, fmt.Errorf("seq: step %d (%s): %w", i, st.Op, err)
		}
		if err := base.Advance(y, res, info); err != nil {
			stepSpan.End()
			return nil, fmt.Errorf("seq: step %d (%s) advance: %w", i, st.Op, err)
		}
		latency := float64(time.Since(t0)) / float64(time.Millisecond)
		stepSpan.End()
		seqSteps.Inc()
		seqStepMS.Observe(latency)

		ranking := core.Rank(res.NodeScores, exclude)
		rep := StepReport{
			Index: i, Op: st.Op,
			ChangedNodes:   len(info.ChangedNodes),
			ReusedBaseline: info.ReusedBaseline,
			FullRebuild:    info.FullRebuild,
			DriftRebuild:   info.DriftRebuild,
			LatencyMS:      latency,
		}
		if len(ranking.Order) > 0 {
			rep.TopNode = ranking.Order[0]
			rep.TopScore = ranking.Scores[0]
		}
		nl = next
		steps = append(steps, rep)
		obs.Debugf("seq %s step %d/%d: %s, %d changed, %s path, %.1fms",
			script.Name, i+1, len(script.Steps), st.Op, rep.ChangedNodes, rep.Path(), latency)
	}
	return &Result{
		Name:         script.Name,
		Steps:        steps,
		Final:        base.Result.Clone(),
		FinalNetlist: nl,
	}, nil
}

// startSpan begins a step span: a child of parent when one was supplied, a
// root span otherwise (mirroring service.Run's convention).
func startSpan(parent *obs.Span, name string) *obs.Span {
	if parent != nil {
		return parent.Child(name)
	}
	return obs.Start(name)
}
