package bench

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"cirstag/internal/obs/resource"
)

// Benchmark-report tooling: parse `go test -bench` output into a stable
// JSON report (emitted by CI as BENCH_<sha>.json by cmd/benchgen's
// -bench-json mode). cmd/runcmp gates a current report against the committed
// baseline.

// BenchSchemaVersion identifies the benchmark-report JSON layout.
const BenchSchemaVersion = "cirstag.bench/v1"

// BenchResult is one benchmark measurement. Name is normalized: the
// "Benchmark" prefix and the trailing "-<procs>" GOMAXPROCS suffix are
// stripped, so "BenchmarkCoreRun/parallel-8" becomes "CoreRun/parallel" and
// reports from machines with different core counts stay comparable.
type BenchResult struct {
	Name    string             `json:"name"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// BenchReport is the persisted form of one benchmark sweep. Env (additive to
// schema v1) fingerprints the machine the sweep ran on, so cmd/runcmp can
// flag cross-environment diffs instead of attributing them to code.
type BenchReport struct {
	Schema    string        `json:"schema"`
	SHA       string        `json:"sha,omitempty"`
	GoVersion string        `json:"go_version,omitempty"`
	Env       *resource.Env `json:"env,omitempty"`
	Results   []BenchResult `json:"results"`
}

// procsSuffix matches the trailing -<n> GOMAXPROCS marker of a benchmark name.
var procsSuffix = regexp.MustCompile(`-\d+$`)

// normalizeBenchName strips the Benchmark prefix and the -<procs> suffix.
func normalizeBenchName(name string) string {
	name = strings.TrimPrefix(name, "Benchmark")
	return procsSuffix.ReplaceAllString(name, "")
}

// ParseGoBench extracts benchmark results from `go test -bench` output.
// Result lines look like
//
//	BenchmarkCoreRun/serial-8    1    123456789 ns/op    42.0 extra/metric
//
// i.e. name, iteration count, then (value, unit) pairs. Non-benchmark lines
// (package headers, PASS/ok, logging) are skipped. Results are sorted by
// normalized name so reports are diffable.
func ParseGoBench(r io.Reader) ([]BenchResult, error) {
	var out []BenchResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// fields[1] is the iteration count; it must parse or this is a
		// coincidental line (e.g. log output mentioning a benchmark).
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue
		}
		res := BenchResult{Name: normalizeBenchName(fields[0])}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bench: line %q: bad value %q", sc.Text(), fields[i])
			}
			unit := fields[i+1]
			if unit == "ns/op" {
				res.NsPerOp = v
				continue
			}
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[unit] = v
		}
		if res.NsPerOp <= 0 {
			return nil, fmt.Errorf("bench: line %q has no ns/op measurement", sc.Text())
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out, nil
}
