// Benchmarks regenerating every table and figure of the paper, one
// testing.B target per artifact. Each iteration runs the corresponding
// experiment end-to-end on a laptop-sized configuration; the printed metrics
// (via b.ReportMetric) expose the headline numbers so `go test -bench=.`
// doubles as a compact reproduction report. cmd/experiments runs the same
// harness at full scale with paper-style formatted output.
package cirstag_test

import (
	"fmt"
	"os"
	"testing"

	"cirstag/internal/bench"
	"cirstag/internal/circuit"
	"cirstag/internal/core"
	"cirstag/internal/solver"
	"cirstag/internal/timing"
)

func caseACfg() bench.CaseAConfig {
	return bench.CaseAConfig{
		Benchmarks: []string{"ss_pcm"},
		Seed:       1,
		Timing:     timing.Config{Epochs: 300, Hidden: 32},
	}
}

// BenchmarkTableI regenerates Table I (relative PO arrival change when
// perturbing unstable vs stable nodes, across scale factors and perturbation
// percentages).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTableI(caseACfg())
		if err != nil {
			b.Fatal(err)
		}
		var sepSum float64
		for _, r := range rows {
			sepSum += r.UnstableMean / r.StableMean
		}
		b.ReportMetric(sepSum/float64(len(rows)), "unstable/stable-ratio")
		b.ReportMetric(rows[0].R2, "gnn-R2")
	}
}

// BenchmarkFig3 regenerates the Fig. 3 distribution (per-PO relative changes
// with dimension reduction, top/bottom 10% at 10x).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := bench.RunDistribution("ss_pcm", caseACfg(), 10, 10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(meanOf(d.Unstable)/meanOf(d.Stable), "unstable/stable-ratio")
	}
}

// BenchmarkFig4 regenerates the Fig. 4 ablation (no dimension reduction);
// compare its ratio against BenchmarkFig3's.
func BenchmarkFig4(b *testing.B) {
	cfg := caseACfg()
	cfg.SkipDimReduction = true
	for i := 0; i < b.N; i++ {
		d, err := bench.RunDistribution("ss_pcm", cfg, 10, 10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(meanOf(d.Unstable)/meanOf(d.Stable), "unstable/stable-ratio")
	}
}

// BenchmarkFig5 regenerates the runtime-scalability sweep over the five
// smallest standard benchmarks and reports the fitted log-log exponent
// (1.0 = linear).
func BenchmarkFig5(b *testing.B) {
	var names []string
	for _, s := range circuit.StandardBenchmarks()[:5] {
		names = append(names, s.Name)
	}
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunFig5(bench.Fig5Config{Seed: 1, Benchmarks: names})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bench.LinearityFit(rows), "scaling-exponent")
	}
}

// BenchmarkTableII regenerates the Case Study B topology-perturbation table
// (embedding cosine and macro-F1, unstable vs stable gates).
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTableII(bench.CaseBConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.StableCos-last.UnstableCos, "cosine-gap")
		b.ReportMetric(last.StableF1-last.UnstableF1, "f1-gap")
	}
}

// BenchmarkAblationSparsify regenerates the Phase-2 design-choice ablation:
// η-pruned manifolds vs dense kNN manifolds.
func BenchmarkAblationSparsify(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row, err := bench.RunSparsifyAblation("ss_pcm", 1, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(row.RankCorrelation, "rank-spearman")
		b.ReportMetric(float64(row.DenseEdgesX)/float64(row.SparseEdgesX), "edge-reduction")
	}
}

// BenchmarkAblationDims sweeps the embedding/score dimensions (M, s) and
// reports the best separation found.
func BenchmarkAblationDims(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunDimsAblation("ss_pcm", 1, []int{8, 16}, []int{8}, caseACfg())
		if err != nil {
			b.Fatal(err)
		}
		best := 0.0
		for _, r := range rows {
			if r.Separation > best {
				best = r.Separation
			}
		}
		b.ReportMetric(best, "best-separation")
	}
}

// BenchmarkCirSTAGCore measures one bare CirSTAG invocation (no GNN
// training) on a mid-size design — the number Fig. 5 plots per benchmark.
func BenchmarkCirSTAGCore(b *testing.B) {
	nl, err := circuit.BenchmarkByName("sasc", 1)
	if err != nil {
		b.Fatal(err)
	}
	rows, err := bench.RunFig5(bench.Fig5Config{Seed: 1, Benchmarks: []string{"sasc"}})
	if err != nil {
		b.Fatal(err)
	}
	_ = rows
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFig5(bench.Fig5Config{Seed: 1, Benchmarks: []string{"sasc"}}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(nl.NumPins()), "pins")
}

func meanOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// BenchmarkDMDQuery measures batched DMD queries on a ~10k-node synthetic
// manifold pair: a 10k-pair batch through the sketch-backed engine versus a
// 32-pair batch through the exact engine (two Laplacian solves per pair).
// Gated by the CI bench-regression job; the sketch build happens outside the
// timed region because it amortizes over every query of a session, and the
// sketch batch is sized so one op is tens of milliseconds — large enough to
// gate at -benchtime=1x without scheduler noise tripping the limit.
func BenchmarkDMDQuery(b *testing.B) {
	gx, gy := bench.SyntheticManifoldPair(10000, 7)
	b.Run("sketch10k", func(b *testing.B) {
		// Pin graphs are expander-like: Jacobi converges in far fewer
		// iterations than the spanning-tree default (which is tuned for the
		// kNN manifolds of a pipeline Result).
		cal := core.NewDMDCalculatorOpts(gx, gy, core.DMDOptions{
			Approx: true, Eps: 0.5, Seed: 7,
			Solver: solver.Options{Tol: 1e-4, Precond: solver.PrecondJacobi},
		})
		pairs := bench.RandomPairs(gx.N(), 10000, 9)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, nonFinite := bench.QueryBatch(cal, pairs); nonFinite != 0 {
				b.Fatalf("%d non-finite DMD answers", nonFinite)
			}
		}
		b.ReportMetric(float64(gx.N()), "nodes")
	})
	b.Run("exact32", func(b *testing.B) {
		cal := core.NewDMDCalculatorOpts(gx, gy, core.DMDOptions{})
		pairs := bench.RandomPairs(gx.N(), 32, 9)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, nonFinite := bench.QueryBatch(cal, pairs); nonFinite != 0 {
				b.Fatalf("%d non-finite DMD answers", nonFinite)
			}
		}
	})
}

// BenchmarkCoreRunLarge runs the full pipeline with default options at two
// sizes beyond the BenchmarkCoreRun point, both above the pgm threshold where
// sparsification ranks edges by sketched resistances. Together with CoreRun
// the three sizes give the ledger a node-count scaling curve; the "nodes"
// metric labels each point.
func BenchmarkCoreRunLarge(b *testing.B) {
	for _, target := range []int{12000, 24000} {
		in := bench.SyntheticRunInput(target, 5)
		b.Run(fmt.Sprintf("n%dk", target/1000), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(in, core.Options{Seed: 3}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(in.Graph.N()), "nodes")
		})
	}
}

// BenchmarkLargeResistanceEngine is the near-linear-engine acceptance run: a
// ≥100k-node pair, a 1000-pair sketch batch, and an exact subsample for the
// speedup and (1±ε) checks. Too heavy for every CI run — set
// CIRSTAG_LARGE_BENCH=1 to enable (the name deliberately shares no prefix
// with any gated benchmark, so skipping it cannot fail the regression gate).
func BenchmarkLargeResistanceEngine(b *testing.B) {
	if os.Getenv("CIRSTAG_LARGE_BENCH") == "" {
		b.Skip("set CIRSTAG_LARGE_BENCH=1 to run the 100k-node acceptance benchmark")
	}
	for i := 0; i < b.N; i++ {
		rep := bench.RunResistanceEngine(100000, 1000, 24, 0.5, 11)
		b.ReportMetric(float64(rep.Nodes), "nodes")
		b.ReportMetric(rep.BuildSeconds, "build_s")
		b.ReportMetric(rep.Speedup, "speedup_vs_exact")
		b.ReportMetric(rep.MaxRelErr, "max_rel_err")
		b.ReportMetric(float64(rep.NonFinite), "nonfinite")
	}
}
