// Command cirstag runs the full stability analysis on a netlist file: it
// trains (or quickly fits) the timing GNN for the design, runs CirSTAG, and
// prints the ranked node stability scores.
//
// Usage:
//
//	cirstag -netlist design.net [-top 20] [-seed 1] [-epochs 300]
//	benchgen -name sasc -o sasc.net && cirstag -netlist sasc.net
//	cirstag -bench sasc -report run.json -debug-addr :6060
//	cirstag -bench sasc -trace trace.json -log-format json
//	cirstag -bench sasc -history-dir runs/ && runcmp -ledger runs/ -phases core.run
//	benchgen -name sasc -seq-example 10 -o edits.json && cirstag -bench sasc -sequence edits.json
//
// Sequence scoring: -sequence applies a cirstag.seq/v1 script of netlist
// edits (resize, scale_caps, buffer, merge, rewire) one step at a time,
// re-scoring the design incrementally after every step (internal/seq). The
// output is a per-step table (operation, changed nodes, incremental path,
// latency) followed by the final design's ranked listing.
//
// Observability: -report writes a machine-readable JSON run report (per-phase
// spans with wall time and resource deltas, eigensolver convergence,
// worker-pool utilization; schema cirstag.report/v2), -v adds a human-readable
// span-tree summary on exit and debug logging, -quiet suppresses progress
// output, -debug-addr serves net/http/pprof, expvar, and the Prometheus text
// exposition (/metrics) while the run executes (-metrics-out snapshots the
// exposition body to a file at exit), and -profile-dir captures pprof profiles
// per run (one CPU profile plus a heap snapshot at every top-level phase
// boundary, indexed by a content-hash manifest; diff two runs with
// cmd/runcmp or `go tool pprof -base`).
//
// Telemetry export: -trace writes the span tree, worker-pool lanes, and cache
// events as Chrome-trace/Perfetto JSON; -log-format=json switches the logger
// to one JSON object per line stamped with the run ID and current span ID so
// logs correlate with traces and reports; -history-dir appends this run's
// per-phase latencies to an append-only JSONL ledger, which `runcmp -ledger`
// gates against the most recent comparable run, exiting 1 and naming the
// regressed phase.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"

	"cirstag/internal/circuit"
	"cirstag/internal/cirerr"
	"cirstag/internal/cliutil"
	"cirstag/internal/core"
	"cirstag/internal/obs"
	"cirstag/internal/obs/export"
	"cirstag/internal/obs/history"
	"cirstag/internal/service"
)

func main() {
	var (
		netlistPath = flag.String("netlist", "", "path to a text netlist (see cmd/benchgen)")
		benchName   = flag.String("bench", "", "or: a standard benchmark name to generate on the fly")
		top         = flag.Int("top", 20, "how many most-unstable nodes to print")
		seed        = flag.Int64("seed", 1, "random seed")
		epochs      = flag.Int("epochs", 300, "timing-GNN training epochs")
		hidden      = flag.Int("hidden", 32, "timing-GNN hidden width")
		embedDims   = flag.Int("embed-dims", 16, "spectral embedding dimension M")
		scoreDims   = flag.Int("score-dims", 8, "stability score dimension s")
		sequence    = flag.String("sequence", "", "score a transformation sequence: path to a cirstag.seq/v1 script JSON (see internal/seq)")
		edges       = flag.Bool("edges", false, "also print the most-distorted manifold edges")
		approxDMD   = flag.Bool("approx-dmd", false, "answer DMD queries from JL resistance sketches (near-linear engine) and print top-pair distortions")
		dmdEps      = flag.Float64("dmd-eps", 0.5, "with -approx-dmd: sketch relative-error target, in (0,1)")
		cacheDir    = flag.String("cache-dir", "", "artifact cache directory (default $CIRSTAG_CACHE_DIR; empty disables)")
		noCache     = flag.Bool("no-cache", false, "disable the artifact cache even when $CIRSTAG_CACHE_DIR is set")
		report      = flag.String("report", "", "write a JSON run report (spans + metrics) to this file")
		tracePath   = flag.String("trace", "", "write a Chrome-trace/Perfetto JSON export to this file")
		logFormat   = flag.String("log-format", "text", "log line encoding: text or json (run/span correlated)")
		historyDir  = flag.String("history-dir", "", "append this run's phase latencies to DIR/ledger.jsonl")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof, expvar and /metrics on this address (e.g. :6060)")
		metricsOut  = flag.String("metrics-out", "", "with -debug-addr: write the served /metrics exposition to this file at exit")
		profileDir  = flag.String("profile-dir", "", "capture pprof profiles under DIR/<run_id>/ (run CPU profile + per-phase heap snapshots + manifest)")
		verbose     = flag.Bool("v", false, "debug logging and a span-tree summary on exit")
		quiet       = flag.Bool("quiet", false, "errors only")
	)
	flag.Parse()
	dmdEpsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "dmd-eps" {
			dmdEpsSet = true
		}
	})

	// Validate the flag combination up front so misuse exits with a usage
	// message instead of failing deep inside the pipeline.
	warnings, err := validateFlags(flagValues{
		netlist: *netlistPath, bench: *benchName, cacheDir: *cacheDir,
		top: *top, epochs: *epochs, hidden: *hidden, embedDims: *embedDims, scoreDims: *scoreDims,
		verbose: *verbose, quiet: *quiet, noCache: *noCache, logFormat: *logFormat,
		metricsOut: *metricsOut, debugAddr: *debugAddr,
		approxDMD: *approxDMD, dmdEps: *dmdEps, dmdEpsSet: dmdEpsSet,
		sequence: *sequence, edges: *edges,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cirstag: %v (see -h)\n", err)
		os.Exit(cirerr.ExitBadInput)
	}

	switch {
	case *quiet:
		obs.SetLevel(obs.LevelError)
	case *verbose:
		obs.SetLevel(obs.LevelDebug)
	}
	if *logFormat == "json" {
		obs.SetLogFormat(obs.FormatJSON)
	}
	if *report != "" || *debugAddr != "" || *verbose || *tracePath != "" || *historyDir != "" || *profileDir != "" {
		obs.Enable()
		// Every consumer of span data benefits from the resource columns and
		// sampling only runs at span boundaries, so the switch rides along
		// with span recording rather than needing its own flag.
		obs.EnableResources()
	}
	if *tracePath != "" {
		obs.EnableTrace()
	}
	for _, w := range warnings {
		obs.Errorf("cirstag: warning: %s", w)
	}
	capturer, err := cliutil.StartProfile(*profileDir)
	if err != nil {
		fatal(err)
	}
	if capturer != nil {
		obs.Infof("capturing profiles under %s", capturer.Dir())
	}
	var debugBound string
	if *debugAddr != "" {
		addr, closer, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fatal(err)
		}
		defer closer.Close()
		debugBound = addr
		obs.Infof("debug server listening on http://%s/debug/pprof/ (expvar at /debug/vars, Prometheus at /metrics)", addr)
	}

	store, err := cliutil.OpenCache(*cacheDir, *noCache)
	if err != nil {
		fatal(err)
	}
	if store != nil {
		obs.Debugf("artifact cache at %s", store.Dir())
	}

	var nl *circuit.Netlist
	if *netlistPath != "" {
		f, err := os.Open(*netlistPath)
		if err != nil {
			fatal(err)
		}
		nl, err = circuit.Read(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		var err error
		nl, err = circuit.BenchmarkByName(*benchName, *seed)
		if err != nil {
			fatal(err)
		}
	}
	// The analysis itself — train (or load) the timing GNN, run CirSTAG, rank
	// node stability — is the shared service pipeline; cmd/cirstagd runs the
	// identical code per job. A nil parent span keeps the CLI's historical
	// root-span structure (train_gnn or load_gnn, then core.run). With
	// -sequence the pipeline instead applies the script step by step and
	// re-scores incrementally after each one.
	var script string
	if *sequence != "" {
		b, err := os.ReadFile(*sequence)
		if err != nil {
			fatal(err)
		}
		script = string(b)
	}
	runRes, err := service.Run(nl, service.Params{
		Seed: *seed, Epochs: *epochs, Hidden: *hidden,
		EmbedDims: *embedDims, ScoreDims: *scoreDims, Top: *top,
		Script: script,
	}, store, nil)
	if err != nil {
		fatal(err)
	}
	// For profile matching "cold" means the run did the full training work —
	// either the cache was disabled or the model was not cached yet. That is
	// the axis a profile diff cares about, and it splits the CI smoke pair
	// (cold run trains, warm run loads) even though both enable the cache.
	capturer.SetMeta(runRes.InputHash, store == nil || runRes.Trained)
	os.Stdout.Write(runRes.Text) //nolint:errcheck

	res, ranking := runRes.Core, runRes.Ranking
	n := *top
	if n > len(ranking.Order) {
		n = len(ranking.Order)
	}
	if *approxDMD {
		// Exercise the near-linear resistance engine on the run's own
		// manifolds: sketch-backed distance-mapping distortions between
		// consecutive top-ranked nodes. The cache store (when enabled)
		// persists the sketches, so repeat analyses skip the build.
		dmdSpan := obs.Start("dmd_queries")
		cal := core.NewDMDCalculatorOpts(res.InputManifold, res.OutputManifold, core.DMDOptions{
			Approx: true, Eps: *dmdEps, Seed: *seed, Cache: store,
		})
		fmt.Printf("\n# DMD between consecutive top nodes (sketch-backed, eps=%g)\n", *dmdEps)
		for i := 0; i+1 < n; i++ {
			p, q := ranking.Order[i], ranking.Order[i+1]
			fmt.Printf("%6d %6d  %12.6g\n", p, q, cal.DMD(p, q))
		}
		dmdSpan.End()
	}
	if *edges {
		fmt.Printf("\n# most distorted manifold edges (u, v, score)\n")
		es := res.EdgeScores
		// Top n by score.
		for i := 0; i < n && i < len(es); i++ {
			best := i
			for j := i + 1; j < len(es); j++ {
				if es[j].Score > es[best].Score {
					best = j
				}
			}
			es[i], es[best] = es[best], es[i]
			fmt.Printf("%6d %6d  %12.6g\n", es[i].U, es[i].V, es[i].Score)
		}
	}

	if *verbose {
		obs.WriteTree(os.Stderr)
	}
	if *report != "" {
		if err := obs.WriteReportFile(*report); err != nil {
			fatal(err)
		}
		obs.Infof("wrote run report to %s", *report)
	}
	if *tracePath != "" {
		if err := export.WriteTraceFile(*tracePath); err != nil {
			fatal(err)
		}
		obs.Infof("wrote trace export to %s (load in ui.perfetto.dev or chrome://tracing)", *tracePath)
	}
	if *metricsOut != "" {
		if err := fetchMetrics(debugBound, *metricsOut); err != nil {
			fatal(err)
		}
		obs.Infof("wrote /metrics exposition to %s", *metricsOut)
	}
	if err := capturer.Close(); err != nil {
		fatal(err)
	}
	if capturer != nil {
		obs.Infof("wrote profiles to %s", capturer.Dir())
	}
	if *historyDir != "" {
		if err := recordHistory(*historyDir, nl, store == nil); err != nil {
			fatal(err)
		}
	}
}

// recordHistory appends this run's phase profile to the ledger.
func recordHistory(dir string, nl *circuit.Netlist, cold bool) error {
	entry := history.NewEntry("cirstag", service.NetlistHash(nl), cold)
	prior, skipped, err := history.Load(dir)
	if err != nil {
		return err
	}
	if skipped > 0 {
		obs.Errorf("cirstag: warning: skipped %d unreadable ledger line(s) in %s", skipped, dir)
	}
	if err := history.Append(dir, entry); err != nil {
		return err
	}
	obs.Infof("appended run %s to %s (%d prior entries)", entry.RunID, filepath.Join(dir, history.LedgerFile), len(prior))
	return nil
}

// fetchMetrics snapshots the live /metrics exposition through the debug
// server's real HTTP path (not a direct render), so what lands in the file is
// exactly what a scraper would have seen.
func fetchMetrics(addr, outPath string) error {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: status %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, body, 0o644)
}

// flagValues bundles the validated flag set (the list outgrew a readable
// parameter list).
type flagValues struct {
	netlist, bench, cacheDir       string
	top, epochs, hidden, embedDims int
	scoreDims                      int
	verbose, quiet, noCache        bool
	logFormat                      string
	metricsOut, debugAddr          string
	approxDMD                      bool
	dmdEps                         float64
	dmdEpsSet                      bool
	sequence                       string
	edges                          bool
}

// validateFlags rejects invalid flag combinations before any work starts.
// The returned warnings (if any) are surfaced after logging is configured.
func validateFlags(v flagValues) ([]string, error) {
	if err := cliutil.ExactlyOne(
		cliutil.NamedFlag{Name: "-netlist", Set: v.netlist != ""},
		cliutil.NamedFlag{Name: "-bench", Set: v.bench != ""},
	); err != nil {
		return nil, err
	}
	if err := cliutil.MutuallyExclusive(
		cliutil.NamedFlag{Name: "-v", Set: v.verbose},
		cliutil.NamedFlag{Name: "-quiet", Set: v.quiet},
	); err != nil {
		return nil, err
	}
	if err := cliutil.ValidateCacheFlags(v.cacheDir, v.noCache); err != nil {
		return nil, err
	}
	if err := cliutil.OneOf("-log-format", v.logFormat, "text", "json"); err != nil {
		return nil, err
	}
	if v.metricsOut != "" && v.debugAddr == "" {
		return nil, fmt.Errorf("-metrics-out requires -debug-addr")
	}
	var warnings []string
	warning, err := cliutil.ValidateApproxDMDFlags(v.approxDMD, v.dmdEps, v.dmdEpsSet, v.noCache)
	if err != nil {
		return nil, err
	}
	if warning != "" {
		warnings = append(warnings, warning)
	}
	if err := cliutil.ValidateSequenceFlags(v.sequence, v.edges, v.approxDMD); err != nil {
		return nil, err
	}
	return warnings, cliutil.Positive(
		cliutil.NamedInt{Name: "-top", Value: v.top},
		cliutil.NamedInt{Name: "-epochs", Value: v.epochs},
		cliutil.NamedInt{Name: "-hidden", Value: v.hidden},
		cliutil.NamedInt{Name: "-embed-dims", Value: v.embedDims},
		cliutil.NamedInt{Name: "-score-dims", Value: v.scoreDims},
	)
}

// fatal exits with the code the error's cirerr kind maps to (1 internal,
// 2 bad input, 3 corrupt artifact, 4 no convergence, 5 degenerate geometry).
func fatal(err error) {
	cliutil.Fatal("cirstag", err)
}
