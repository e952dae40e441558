package main

import (
	"fmt"
	"os"
	"slices"
	"time"

	"cirstag/internal/circuit"
	"cirstag/internal/core"
	"cirstag/internal/mat"
	"cirstag/internal/metrics"
	"cirstag/internal/obs"
	"cirstag/internal/parallel"
	"cirstag/internal/perturb"
	"cirstag/internal/seq"
	"cirstag/internal/timing"
)

const (
	seqDesign = "sasc"
	// seqEpochs trains the step-scoring GNN. The CLI default (300) would
	// triple set-up, which runs three times per benchmark run.
	seqEpochs = 100
	// stepsPerSecond sizes the script from -seconds: steps average about
	// half a second on a 2-core host.
	stepsPerSecond = 2
	// seqInputSeed fixes the design, the GNN and the script; -seed drives
	// the pipeline's RNG streams. Step times differ by up to 25% between
	// designs and scripts — the path mix and the cost of each path move with
	// them — which is more than any bound the benchmark could hold, while
	// the pipeline seed leaves the path mix unchanged.
	seqInputSeed int64 = 1
)

// seqInputs is what the sequence workload sets up.
type seqInputs struct {
	nl     *circuit.Netlist
	model  *timing.Model
	script *seq.Script
}

// stratum is the path a step took, with a drift rebuild counted as the
// rebuild it is.
func stratum(st seq.StepReport) string {
	if st.Path() == "drift-rebuild" {
		return "rebuild"
	}
	return st.Path()
}

// script is seq.Example's edit mix with one small edit last: a 10% cap
// change on one sink pin, which takes the patch path, so the oracle checks
// the patch approximation compounded over the whole script rather than a
// rebuild, which equals the oracle bit for bit.
func script(nl *circuit.Netlist, steps int, seed int64) *seq.Script {
	s := seq.Example(nl, steps-1, seed)
	for _, p := range nl.Pins {
		if p.Dir == circuit.DirIn && p.Net >= 0 {
			s.Steps = append(s.Steps, seq.Step{Op: seq.OpScaleCaps, Pins: []int{p.ID}, Factor: 1.1})
			break
		}
	}
	return s
}

// runSequence scores one scripted edit sequence with seq.Run and checks the
// final step against a cold analysis.
func runSequence(cfg runConfig) (*outcome, error) {
	seed := seqInputSeed
	steps := max(1, stepsPerSecond*int(cfg.budget/time.Second))
	in, setupTimes, err := repeatSetup(func() (*seqInputs, error) {
		nl, err := circuit.BenchmarkByName(seqDesign, seed)
		if err != nil {
			return nil, err
		}
		m, err := timing.New(nl, timing.Config{Epochs: seqEpochs, Hidden: 32, Seed: seed})
		if err != nil {
			return nil, err
		}
		return &seqInputs{nl: nl, model: m, script: script(nl, steps, seed)}, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	opts := analyzeOptions(cfg.seed)
	pred := seq.NewModelPredictor(in.model)

	out := &outcome{attempted: steps}
	res, err := seq.Run(in.nl, in.script, pred, seq.Options{Core: opts})
	if err != nil {
		out.failed = steps
		fmt.Fprintf(os.Stderr, "cirbench: seq.Run: %v\n", err)
		return out, nil
	}
	byPath := map[string][]float64{}
	var stepMS []float64
	for _, st := range res.Steps {
		byPath[stratum(st)] = append(byPath[stratum(st)], st.LatencyMS)
		stepMS = append(stepMS, st.LatencyMS)
	}

	// Oracle: the final step's scores against a cold analysis of the step-0
	// graph and features with the final output. Patch steps approximate, and
	// the approximation compounds along the script, so the check is the
	// incremental path's documented envelope — rank correlation of at least
	// 0.95 — rather than equality; score magnitudes drift further (Pearson
	// fell to 0.82 on one script where Spearman held 0.986).
	y, err := pred.Outputs(res.FinalNetlist)
	if err != nil {
		return nil, err
	}
	cold, err := core.Run(core.Input{Graph: in.nl.PinGraph(), Output: y, Features: in.nl.Features()}, opts)
	if err != nil {
		return nil, fmt.Errorf("oracle analysis: %w", err)
	}
	rho := metrics.Spearman(res.Final.NodeScores, cold.NodeScores)
	if rho < minSpearman {
		out.failed++
		fmt.Fprintf(os.Stderr, "cirbench: final step's ranking correlates %.4f with the cold oracle (want ≥ %g)\n", rho, minSpearman)
	}

	if cfg.trace != nil {
		traceSequence(cfg.trace, in, opts, res, out)
		return out, nil
	}
	for _, p := range []string{"reuse", "patch", "rebuild"} {
		if len(byPath[p]) > 0 {
			out.note("step_ms_mean."+p, mean(byPath[p]), "ms", len(byPath[p]))
		}
	}
	out.note("step_ms_p50", median(stepMS), "ms", len(stepMS))
	if tailOK(len(stepMS), 0.8) {
		out.note("step_ms_p80", quantile(stepMS, 0.8), "ms", len(stepMS))
	}
	out.note("oracle_pearson", metrics.Pearson(res.Final.NodeScores, cold.NodeScores), "ratio", len(cold.NodeScores))
	out.set("setup_s", median(setupTimes), len(setupTimes))
	// The mean over all steps, so that a change in how many steps take each
	// path moves op_ms as it moves the script's total time.
	out.set("op_ms", mean(stepMS), len(stepMS))
	out.set("quality", rho, len(cold.NodeScores))
	out.set("max_rss_mb", maxRSSMB(), 1)
	return out, nil
}

// traceSequence replays the run: the step-0 baseline through the pipeline's
// layers and then through core.NewBaseline, and every step through seq.Apply,
// the predictor, Baseline.RunIncremental and Baseline.Advance — the calls
// seq.Run makes, with its RNG streams. Each step's top node and score must
// equal seq.Run's report.
func traceSequence(t *tracer, in *seqInputs, opts core.Options, res *seq.Result, out *outcome) {
	pred := seq.NewModelPredictor(in.model)
	obs.Enable()
	defer obs.Disable()

	y0, err := pred.Outputs(in.nl)
	if err != nil {
		out.problems = append(out.problems, fmt.Sprintf("replay inference: %v", err))
		return
	}
	input := core.Input{Graph: in.nl.PinGraph(), Output: y0, Features: in.nl.Features()}
	root := t.begin("sequence", 0)
	rep := replayAnalysis(t, root, input, opts)
	rep.knnMS = timeKNN(t, root, rep.emb, y0)
	var base *core.Baseline
	baseMS := t.span("core.NewBaseline", root, func() { base, err = core.NewBaseline(input, opts) })
	if err != nil {
		out.problems = append(out.problems, fmt.Sprintf("replay baseline: %v", err))
		return
	}
	if !slices.Equal(rep.values, base.Result.Eigenvalues) {
		out.problems = append(out.problems, "replayed baseline eigenvalues disagree with core.NewBaseline")
	}
	var layers layerTimes
	layers.add(rep, baseMS)
	layers.report(out)

	var counts counterTotals
	counts.begin()
	exclude := perturb.PrimaryOutputPinSet(in.nl)
	cur := in.nl
	var applyMS, predictMS, incMS, advMS, replayMS, seqMS float64
	for i, st := range in.script.Steps {
		step := t.begin("seq.step", root)
		var next *circuit.Netlist
		var y *mat.Dense
		var r *core.Result
		var info *core.IncrementalInfo
		applyMS += t.span("seq.Apply", step, func() {
			next = seq.Apply(cur, st, parallel.NewRNG(in.script.Seed, uint64(1<<20+i)))
		})
		predictMS += t.span("Predictor.Outputs", step, func() { y, err = pred.Outputs(next) })
		if err == nil {
			incMS += t.span("Baseline.RunIncremental", step, func() { r, info, err = base.RunIncremental(y, core.IncrementalOptions{}) })
		}
		if err == nil {
			advMS += t.span("Baseline.Advance", step, func() { err = base.Advance(y, r, info) })
		}
		replayMS += t.end(step)
		if err != nil {
			out.problems = append(out.problems, fmt.Sprintf("replay step %d: %v", i, err))
			return
		}
		seqMS += res.Steps[i].LatencyMS
		ranking := core.Rank(r.NodeScores, exclude)
		if want := res.Steps[i]; ranking.Order[0] != want.TopNode || ranking.Scores[0] != want.TopScore {
			out.problems = append(out.problems, fmt.Sprintf("replay step %d: top node %d (%g), seq.Run reported %d (%g)",
				i, ranking.Order[0], ranking.Scores[0], want.TopNode, want.TopScore))
		}
		cur = next
	}
	t.end(root)
	counts.end()
	n := len(in.script.Steps)
	counts.report(out, n)

	paths := map[string][]float64{}
	drift := 0
	for _, st := range res.Steps {
		paths[stratum(st)] = append(paths[stratum(st)], st.LatencyMS)
		if st.DriftRebuild {
			drift++
		}
	}
	out.set("seq.steps.patch", float64(len(paths["patch"])), n)
	out.set("seq.steps.rebuild", float64(len(paths["rebuild"])), n)
	out.set("seq.steps.reuse", float64(len(paths["reuse"])), n)
	out.set("seq.steps.drift", float64(drift), n)
	out.set("seq.useful_ratio", float64(len(paths["patch"])+len(paths["reuse"]))/float64(n), n)
	if p := paths["patch"]; len(p) > 0 {
		out.set("seq.patch_speedup", baseMS/median(p), len(p))
	}
	if p := paths["rebuild"]; len(p) > 0 {
		out.set("seq.rebuild_speedup", baseMS/median(p), len(p))
	}
	out.set("seq.apply_pct", 100*applyMS/replayMS, n)
	out.set("seq.predict_pct", 100*predictMS/replayMS, n)
	out.set("seq.incremental_pct", 100*incMS/replayMS, n)
	out.set("seq.advance_pct", 100*advMS/replayMS, n)
	out.set("trace.overhead_pct", 100*(replayMS-seqMS)/seqMS, n)
}
