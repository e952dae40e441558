// Command runcmp is the project's regression gate and attributes performance
// regressions between two runs: it diffs the per-phase resource profiles of
// two artifacts (run reports, bench reports, or run-history ledger entries),
// ranks phases by relative delta per resource, and names the top regressing
// (phase, resource) pair.
//
// Usage:
//
//	runcmp -a baseline.json -b current.json [-threshold 25] [-phases CoreRun,KNNBuild] [-json verdict.json]
//	runcmp -ledger RUNS_DIR [-input-hash HASH] [...]
//
// File mode sniffs each artifact's "schema" field: cirstag.report/v2 run
// reports, cirstag.bench/v1 benchmark reports, and cirstag.load/v1 loadgen
// verdicts are accepted, and the two sides may mix kinds (a bench baseline
// against a report, say) — only resources present on both sides are
// compared. Ledger mode compares the newest entry against the most recent
// prior entry with the same input hash and cache temperature, i.e. "did the
// run I just recorded regress against its own history".
//
// The human-readable attribution table goes to stdout; -json additionally
// writes the stable cirstag.runcmp/v1 verdict. Exits 0 when no gated phase
// regressed beyond the threshold, 1 on regression, 2 on bad input or flag
// misuse. With -phases, a baseline phase matching a prefix that is missing
// from the current side is a regression too (a gated benchmark that stopped
// running); without it, one-sided phases are only listed as new or gone.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"cirstag/internal/bench"
	"cirstag/internal/load"
	"cirstag/internal/obs"
	"cirstag/internal/obs/history"
	"cirstag/internal/obs/runcmp"
)

func main() {
	var (
		aPath     = flag.String("a", "", "baseline artifact (run report or bench report JSON)")
		bPath     = flag.String("b", "", "current artifact (run report or bench report JSON)")
		ledgerDir = flag.String("ledger", "", "compare the newest ledger entry in DIR against its most recent comparable predecessor")
		inputHash = flag.String("input-hash", "", "ledger mode: only consider entries with this input hash")
		threshold = flag.Float64("threshold", 25, "relative increase (percent) above which a gated phase fails the verdict")
		phases    = flag.String("phases", "", "comma-separated phase-name prefixes to gate; a gated baseline phase missing from the current side fails (default: every phase is gated, one-sided phases only listed)")
		jsonOut   = flag.String("json", "", "also write the cirstag.runcmp/v1 verdict JSON to this file")
	)
	flag.Parse()

	fileMode := *aPath != "" || *bPath != ""
	if fileMode == (*ledgerDir != "") {
		usage("need either -a/-b or -ledger")
	}
	if fileMode && (*aPath == "" || *bPath == "") {
		usage("-a and -b are both required in file mode")
	}
	if fileMode && *inputHash != "" {
		usage("-input-hash only applies to -ledger mode")
	}

	var base, cur *runcmp.Profile
	var err error
	if fileMode {
		if base, err = loadArtifact(*aPath); err != nil {
			fatalInput(err)
		}
		if cur, err = loadArtifact(*bPath); err != nil {
			fatalInput(err)
		}
	} else {
		if base, cur, err = loadLedgerPair(*ledgerDir, *inputHash); err != nil {
			fatalInput(err)
		}
	}

	verdict := runcmp.Compare(base, cur, runcmp.Options{
		ThresholdPct: *threshold,
		Phases:       splitCSV(*phases),
	})
	fmt.Print(verdict.Table())
	if *jsonOut != "" {
		out, err := verdict.WriteJSON()
		if err != nil {
			fatalInput(err)
		}
		if err := os.WriteFile(*jsonOut, out, 0o644); err != nil {
			fatalInput(err)
		}
	}
	if verdict.Regressed {
		os.Exit(1)
	}
}

// loadArtifact reads a JSON artifact and dispatches on its schema field to
// the matching profile conversion.
func loadArtifact(path string) (*runcmp.Profile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sniff struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(raw, &sniff); err != nil {
		return nil, fmt.Errorf("%s: not valid JSON: %v", path, err)
	}
	switch sniff.Schema {
	case obs.SchemaVersion:
		rep, err := obs.ParseReport(raw)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		return runcmp.FromReport(rep, path), nil
	case bench.BenchSchemaVersion:
		var rep bench.BenchReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		return runcmp.FromBench(&rep, path), nil
	case load.SchemaVersion:
		v, err := load.Parse(raw)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		return runcmp.FromLoad(v, path), nil
	default:
		return nil, fmt.Errorf("%s: unrecognized schema %q (want a %s run report, %s bench report, or %s load verdict)",
			path, sniff.Schema, obs.SchemaVersion, bench.BenchSchemaVersion, load.SchemaVersion)
	}
}

// loadLedgerPair picks the comparison pair out of a run-history ledger: the
// newest entry (optionally restricted to wantHash) is "current", and the most
// recent earlier entry with the same input hash, cache temperature, and tool
// is "baseline" — entries for different inputs or a cold run against a warm
// one are not comparable.
func loadLedgerPair(dir, wantHash string) (base, cur *runcmp.Profile, err error) {
	entries, skipped, err := history.Load(dir)
	if err != nil {
		return nil, nil, err
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "runcmp: warning: skipped %d malformed ledger line(s)\n", skipped)
	}
	if wantHash != "" {
		var kept []history.Entry
		for _, e := range entries {
			if e.InputHash == wantHash {
				kept = append(kept, e)
			}
		}
		entries = kept
	}
	if len(entries) == 0 {
		return nil, nil, fmt.Errorf("ledger %s has no matching entries", dir)
	}
	last := entries[len(entries)-1]
	for i := len(entries) - 2; i >= 0; i-- {
		e := entries[i]
		if e.InputHash == last.InputHash && e.Cold == last.Cold && e.Tool == last.Tool {
			return runcmp.FromEntry(e, fmt.Sprintf("%s[%d]", dir, i)),
				runcmp.FromEntry(last, fmt.Sprintf("%s[%d]", dir, len(entries)-1)), nil
		}
	}
	return nil, nil, fmt.Errorf("ledger %s has no prior entry comparable to the newest one (input %s, cold=%v, tool=%s)",
		dir, last.InputHash, last.Cold, last.Tool)
}

func splitCSV(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func usage(msg string) {
	fmt.Fprintf(os.Stderr, "runcmp: %s (see -h)\n", msg)
	os.Exit(2)
}

func fatalInput(err error) {
	fmt.Fprintf(os.Stderr, "runcmp: %v\n", err)
	os.Exit(2)
}
