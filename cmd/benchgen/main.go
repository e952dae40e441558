// Command benchgen generates the synthetic benchmark netlists and writes
// them in the repository's text netlist format. It also doubles as the CI
// benchmark-report tool: -bench-json converts `go test -bench` output into a
// schema-versioned JSON report, which cmd/runcmp gates against the committed
// baseline.
//
// Usage:
//
//	benchgen -name sasc -seed 1 -o sasc.net
//	benchgen -list
//	benchgen -custom -inputs 32 -outputs 16 -layers 10 -width 80 -o my.net
//	benchgen -name sasc -seq-example 10 -o edits.json
//	go test -bench=. -benchtime=1x -run='^$' ./... | benchgen -bench-json -sha $SHA -o BENCH_$SHA.json
//	runcmp -a ci/bench_baseline.json -b BENCH_$SHA.json -phases CoreRun,KNNBuild
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"

	"cirstag/internal/bench"
	"cirstag/internal/circuit"
	"cirstag/internal/obs/history"
	"cirstag/internal/obs/resource"
	"cirstag/internal/seq"
	"cirstag/internal/sta"
)

func main() {
	var (
		name    = flag.String("name", "", "standard benchmark name to generate")
		list    = flag.Bool("list", false, "list standard benchmarks and exit")
		seed    = flag.Int64("seed", 1, "generation seed")
		out     = flag.String("o", "", "output file (default stdout)")
		stats   = flag.Bool("stats", false, "print design statistics instead of the netlist")
		custom  = flag.Bool("custom", false, "generate a custom design from the size flags")
		inputs  = flag.Int("inputs", 32, "custom: primary inputs")
		outputs = flag.Int("outputs", 16, "custom: primary outputs")
		layers  = flag.Int("layers", 10, "custom: logic depth")
		width   = flag.Int("width", 60, "custom: gates per layer")
		wirecap = flag.Float64("wirecap", 1.2, "custom: mean wire capacitance (fF)")
		seqEx   = flag.Int("seq-example", 0, "emit an N-step example transformation script (cirstag.seq/v1 JSON) for the design instead of the netlist")

		benchJSON  = flag.Bool("bench-json", false, "parse `go test -bench` output into a JSON benchmark report")
		historyDir = flag.String("history-dir", "", "bench-json: also append the results to DIR/ledger.jsonl (see cirstag -history-dir)")
		benchIn    = flag.String("i", "", "bench-json: input file with go test -bench output (default stdin)")
		benchSHA   = flag.String("sha", "", "bench-json: commit SHA to record in the report")
	)
	flag.Parse()

	if *historyDir != "" && !*benchJSON {
		fmt.Fprintln(os.Stderr, "benchgen: -history-dir requires -bench-json (see -h)")
		os.Exit(2)
	}
	if *benchJSON {
		if err := emitBenchReport(*benchIn, *benchSHA, *out, *historyDir); err != nil {
			fatal(err)
		}
		return
	}

	if *list {
		fmt.Printf("%-12s %8s %8s %8s %8s\n", "name", "inputs", "outputs", "layers", "width")
		for _, s := range circuit.StandardBenchmarks() {
			fmt.Printf("%-12s %8d %8d %8d %8d\n", s.Name, s.Inputs, s.Outputs, s.Layers, s.Width)
		}
		return
	}

	var nl *circuit.Netlist
	switch {
	case *custom:
		spec := circuit.Spec{
			Name: "custom", Inputs: *inputs, Outputs: *outputs,
			Layers: *layers, Width: *width, LocalBias: 0.65, WireCap: *wirecap,
		}
		nl = circuit.Generate(spec, rand.New(rand.NewSource(*seed)))
	case *name != "":
		var err error
		nl, err = circuit.BenchmarkByName(*name, *seed)
		if err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "benchgen: need -name, -custom or -list (see -h)")
		os.Exit(2)
	}

	if *stats {
		res, err := sta.Analyze(nl)
		if err != nil {
			fatal(err)
		}
		g := nl.PinGraph()
		fmt.Printf("design:   %s\n", nl.Name)
		fmt.Printf("gates:    %d\n", nl.NumGates())
		fmt.Printf("pins:     %d\n", nl.NumPins())
		fmt.Printf("nets:     %d\n", len(nl.Nets))
		fmt.Printf("PIs/POs:  %d/%d\n", len(nl.PrimaryInputs), len(nl.PrimaryOutputs))
		fmt.Printf("graph:    |V|=%d |E|=%d\n", g.N(), g.M())
		fmt.Printf("max delay: %.1f ps (critical PO pin %d)\n", res.MaxDelay, res.CriticalPO)
		return
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if *seqEx > 0 {
		// A ready-to-run sequence script for the generated design, consumable
		// by `cirstag -sequence` and the cirstagd "script" job parameter.
		script := seq.Example(nl, *seqEx, *seed)
		b, err := json.MarshalIndent(script, "", "  ")
		if err != nil {
			fatal(err)
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			fatal(err)
		}
		return
	}
	if err := circuit.Write(w, nl); err != nil {
		fatal(err)
	}
}

// emitBenchReport parses `go test -bench` output (from inPath or stdin) and
// writes a cirstag.bench/v1 JSON report to outPath (or stdout). With
// historyDir it also appends the sweep to the run-history ledger shared with
// cirstag, so bench latencies accumulate in the same trajectory file.
func emitBenchReport(inPath, sha, outPath, historyDir string) error {
	var in io.Reader = os.Stdin
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	results, err := bench.ParseGoBench(in)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark results in input")
	}
	rep := bench.BenchReport{
		Schema:    bench.BenchSchemaVersion,
		SHA:       sha,
		GoVersion: runtime.Version(),
		Env:       resource.CaptureEnv(),
		Results:   results,
	}
	b, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if outPath == "" {
		if _, err = os.Stdout.Write(b); err != nil {
			return err
		}
	} else if err := os.WriteFile(outPath, b, 0o644); err != nil {
		return err
	}
	if historyDir != "" {
		if err := history.Append(historyDir, benchEntry(results)); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchgen: appended %d benchmark(s) to %s\n",
			len(results), historyDir+"/"+history.LedgerFile)
	}
	return nil
}

// benchEntry converts a bench sweep into a ledger entry: each benchmark name
// becomes a "phase" with its ns/op in milliseconds, and the input hash is the
// sorted benchmark-name set, so `runcmp -ledger` compares a benchmark only
// against prior runs of the same sweep.
func benchEntry(results []bench.BenchResult) history.Entry {
	names := make([]string, 0, len(results))
	phases := make(map[string]float64, len(results))
	for _, r := range results {
		names = append(names, r.Name)
		phases[r.Name] = r.NsPerOp / 1e6
	}
	sort.Strings(names)
	h := sha256.Sum256([]byte(strings.Join(names, "\n")))
	e := history.NewEntry("benchgen", "bench:"+hex.EncodeToString(h[:])[:16], false)
	e.PhasesMS = phases
	return e
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchgen: %v\n", err)
	os.Exit(1)
}
