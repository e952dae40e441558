// Command cirbench is the repository's benchmark: one command that runs one
// workload in its own process on inputs generated from -seed, checks that the
// outputs are correct, and prints every metric by name with its unit and
// sample count. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics.
//
// Usage:
//
//	bash cmd/cirbench/run.sh --workload analyze --seed 1 --seconds 25 --trace 0
//	go run ./cmd/cirbench -workload sequence -seed 2 -trace 1
//	go run ./cmd/cirbench -write-refs
//
// An untraced run (-trace 0) reports the end-to-end metrics. A traced run
// (-trace 1) replays the work through the layers' public functions, timing
// each call with a harness span, and reports the per-layer metrics; it
// writes the spans as JSON to -spans. The workloads, the metric catalogue
// and how to read a traced run are described in README.md beside this file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"cirstag/internal/obs"
	"cirstag/internal/obs/resource"
)

// setupRepeats is how many times each workload sets up; setup_s is the
// median, so one slow set-up does not move it.
const setupRepeats = 3

// metricDef declares one metric of the catalogue. BENCHMARK.json lists the
// same names, units and directions (a test keeps the two in step).
type metricDef struct{ name, unit, better string }

// endToEnd is reported by every untraced run, whatever the workload. Each
// metric has a meaning on every workload (README.md gives it per workload),
// which is why there are no workload-specific end-to-end metrics.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_ms", "ms", "lower"},
	{"quality", "ratio", "higher"},
	{"max_rss_mb", "MB", "lower"},
}

// perLayer is reported by every traced run. A layer a workload does not
// exercise reads 0 there; every time-valued metric is one that all four
// workloads exercise (each runs at least one cold analysis), and
// workload-specific layers are reported as counts, shares and ratios.
var perLayer = []metricDef{
	// The cold pipeline, per cold analysis.
	{"embed.spectral_ms", "ms", "lower"},
	{"knn.build_ms", "ms", "lower"},
	{"pgm.gx_ms", "ms", "lower"},
	{"pgm.gy_ms", "ms", "lower"},
	{"eig.generalized_ms", "ms", "lower"},
	{"core.other_ms", "ms", "lower"},
	{"analyze.coverage", "ratio", "higher"},
	{"trace.overhead_pct", "%", "lower"},
	{"fig5_exponent", "exponent", "lower"},
	// Work counts from the program's own obs counters, per operation.
	{"eig.lanczos.iterations", "count", "lower"},
	{"eig.generalized.iterations", "count", "lower"},
	{"eig.generalized.restarts", "count", "lower"},
	{"solver.laplacian.solves", "count", "lower"},
	{"solver.pcg.iterations_mean", "count", "lower"},
	{"solver.block.solves", "count", "lower"},
	{"knn.queries", "count", "lower"},
	{"sparsify.sketch_uses", "count", "lower"},
	// The incremental sequence loop.
	{"seq.steps.patch", "count", "higher"},
	{"seq.steps.rebuild", "count", "lower"},
	{"seq.steps.reuse", "count", "higher"},
	{"seq.steps.drift", "count", "lower"},
	{"seq.useful_ratio", "ratio", "higher"},
	{"seq.patch_speedup", "ratio", "higher"},
	{"seq.rebuild_speedup", "ratio", "higher"},
	{"seq.apply_pct", "%", "lower"},
	{"seq.predict_pct", "%", "lower"},
	{"seq.incremental_pct", "%", "lower"},
	{"seq.advance_pct", "%", "lower"},
	{"core.incremental.changed_nodes", "count", "lower"},
	{"pgm.patched_edges", "count", "lower"},
	{"eig.warm.rounds", "count", "lower"},
	{"eig.warm.fallbacks", "count", "lower"},
	// The job server and its artifact cache.
	{"cache.hits", "count", "higher"},
	{"cache.misses", "count", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.bytes_read", "B", "lower"},
	{"cache.bytes_written", "B", "lower"},
	{"service.queue_wait_pct", "%", "lower"},
	{"service.overhead_pct", "%", "lower"},
	{"service.train_pct", "%", "lower"},
	{"service.warm_speedup", "ratio", "higher"},
	{"service.coalesced", "count", "lower"},
	{"events.dropped", "count", "lower"},
}

// sample is one metric value and the number of samples behind it.
type sample struct {
	value float64
	n     int
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int
	// metrics holds the end-to-end metrics of an untraced run, or the
	// per-layer metrics of a traced one, by name.
	metrics map[string]sample
	// info holds workload-specific detail printed for people (path mixes,
	// per-design times); it is not part of the JSON result.
	info []infoLine
	// problems lists harness checks that failed: a replay that disagrees
	// with the run it replays. They make the run incorrect without failing
	// an operation of the program.
	problems []string
}

type infoLine struct {
	name  string
	value float64
	unit  string
	n     int
}

func (o *outcome) set(name string, value float64, n int) {
	if o.metrics == nil {
		o.metrics = map[string]sample{}
	}
	o.metrics[name] = sample{value, n}
}

func (o *outcome) note(name string, value float64, unit string, n int) {
	o.info = append(o.info, infoLine{name, value, unit, n})
}

// runConfig is what every workload receives.
type runConfig struct {
	seed   int64
	budget time.Duration
	trace  *tracer // nil for an untraced run
}

// workloads maps each workload name to the function that runs it.
// BENCHMARK.json records why each one was chosen; README.md explains it at
// length.
var workloads = map[string]func(runConfig) (*outcome, error){
	"analyze":       func(c runConfig) (*outcome, error) { return runAnalyze(c, analyzeDesigns) },
	"analyze-large": func(c runConfig) (*outcome, error) { return runAnalyze(c, largeDesigns) },
	"sequence":      runSequence,
	"service":       runService,
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: analyze, analyze-large, sequence or service")
		seed      = flag.Int64("seed", 1, "seed every input of the workload is derived from")
		seconds   = flag.Int("seconds", 25, "how long the run measures, in seconds")
		trace     = flag.Int("trace", 0, "1 runs traced and reports per-layer metrics; 0 reports end-to-end metrics")
		spansPath = flag.String("spans", "cirbench-spans.json", "with -trace 1: write the harness spans as JSON to this file")
		writeRefs = flag.Bool("write-refs", false, "run from the repository root: regenerate the reference rankings in "+refsDir+" and exit")
	)
	flag.Parse()
	obs.SetLevel(obs.LevelError)

	if *writeRefs {
		if err := writeReferences(refsDir); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "cirbench: unknown -workload %q (want analyze, analyze-large, sequence or service)\n", *workload)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "cirbench: -trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintf(os.Stderr, "cirbench: -seconds must be positive, got %d\n", *seconds)
		os.Exit(2)
	}
	if err := checkHost(); err != nil {
		fmt.Fprintf(os.Stderr, "cirbench: %v\n", err)
		os.Exit(2)
	}

	cfg := runConfig{seed: *seed, budget: time.Duration(*seconds) * time.Second}
	if *trace == 1 {
		cfg.trace = newTracer()
	}
	stamp := map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"sha": gitSHA(), "env": resource.CaptureEnv(),
	}
	stampJSON, err := json.Marshal(stamp)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# cirbench %s\n", stampJSON)

	out, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	catalogue := endToEnd
	if cfg.trace != nil {
		catalogue = perLayer
		if err := cfg.trace.write(*spansPath, stamp); err != nil {
			fatal(err)
		}
	}
	if err := printResult(out, catalogue); err != nil {
		fatal(err)
	}
}

// printResult writes the detail lines, one line per metric of the catalogue
// and, last, the JSON result. A metric the workload did not set reads 0.
func printResult(out *outcome, catalogue []metricDef) error {
	for _, l := range out.info {
		fmt.Printf("info %s %s %s n=%d\n", l.name, formatFloat(l.value), l.unit, l.n)
	}
	for _, p := range out.problems {
		fmt.Printf("problem %s\n", p)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jsonMetric{}
	for _, def := range catalogue {
		s := out.metrics[def.name]
		if math.IsNaN(s.value) || math.IsInf(s.value, 0) {
			return fmt.Errorf("metric %s is %v", def.name, s.value)
		}
		fmt.Printf("metric %s %s %s n=%d\n", def.name, formatFloat(s.value), def.unit, s.n)
		metrics[def.name] = jsonMetric{s.value, def.unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0 && len(out.problems) == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// checkHost refuses runs whose numbers would not be comparable with the
// recorded ones: a race-instrumented binary, or more threads or workers than
// the host has CPUs.
func checkHost() error {
	if resource.RaceEnabled {
		return errors.New("built with -race; race-instrumented timings are not comparable")
	}
	ncpu := runtime.NumCPU()
	if p := runtime.GOMAXPROCS(0); p > ncpu {
		return fmt.Errorf("GOMAXPROCS %d exceeds the %d CPUs of this host", p, ncpu)
	}
	if w := os.Getenv("CIRSTAG_WORKERS"); w != "" {
		if n, err := strconv.Atoi(w); err == nil && n > ncpu {
			return fmt.Errorf("CIRSTAG_WORKERS %d exceeds the %d CPUs of this host", n, ncpu)
		}
	}
	return nil
}

// gitSHA names the commit the binary was built from: the VCS stamp of the
// build when present, else what git reports for the working directory, else
// "unknown" (a source checkout without git).
func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// repeatSetup runs setup setupRepeats times and returns the last result with
// every set-up time in seconds. Each repeat builds its inputs anew;
// release, when non-nil, disposes of every result but the last.
func repeatSetup[T any](setup func() (T, error), release func(T)) (T, []float64, error) {
	var last T
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i > 0 && release != nil {
			release(last)
		}
		last = v
	}
	return last, times, nil
}

// fits reports whether to run another unit of work. The first unit always
// runs (last is 0); a later one runs when stopping after it would end nearer
// the budget than stopping now, that is while the elapsed time plus half the
// last unit's duration stays within the budget. A run thus measures as close
// to its budget as whole units allow, without cutting a unit short.
func fits(start time.Time, last, budget time.Duration) bool {
	return last == 0 || time.Since(start)+last/2 <= budget
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "cirbench: %v\n", err)
	os.Exit(1)
}
