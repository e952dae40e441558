// Package runcmp implements regression attribution between two measured runs
// (the cmd/runcmp tool): given two run reports, bench reports, or run-history
// ledger entries, it normalizes both into per-phase resource profiles,
// computes relative deltas per (phase, resource), and ranks them so the
// verdict deterministically names the phase and resource that regressed
// hardest — "eigensolve cpu_ms +62%" instead of "the run got slower".
//
// Comparisons are guarded two ways:
//
//   - Noise floors: a resource only participates when its baseline value is
//     large enough to carry signal (1ms of wall/CPU/GC time, 10k allocations,
//     1MiB allocated). Relative deltas on sub-floor values are measurement
//     noise and attributing them would make the gate flap.
//   - Environment fingerprints: when both sides carry an Env (schema v2
//     reports, stamped bench reports, ledger rows), mismatching fields are
//     reported as warnings — a Go-version or CPU-model change explains a
//     regression better than any phase ranking.
//
// Statuses keep the verdict JSON finite: a phase/resource present on one
// side only is "new" or "gone", never an infinite delta. One-sided rows are
// informational, with one exception: a baseline phase that an explicit phase
// filter gates and that is missing from the current side fails the verdict,
// so a gated benchmark that stops running cannot pass the gate silently.
//
// runcmp is the project's only regression gate: CI gates the benchmark
// sweep against ci/bench_baseline.json with it, and `runcmp -ledger` gates a
// run against the run-history ledger.
package runcmp

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"cirstag/internal/bench"
	"cirstag/internal/cirerr"
	"cirstag/internal/load"
	"cirstag/internal/obs"
	"cirstag/internal/obs/history"
	"cirstag/internal/obs/resource"
)

// SchemaVersion identifies the verdict JSON layout.
const SchemaVersion = "cirstag.runcmp/v1"

// Resources is the canonical resource ordering: the tie-break rank when two
// deltas are equal, and the row order within a phase in the table.
var Resources = []string{"wall_ms", "cpu_ms", "allocs", "alloc_bytes", "gc_pause_ms"}

// noiseFloors gate eligibility: the BASELINE value of a resource must reach
// its floor before a relative delta is computed from it.
var noiseFloors = map[string]float64{
	"wall_ms":     1.0,
	"cpu_ms":      1.0,
	"gc_pause_ms": 1.0,
	"allocs":      10_000,
	"alloc_bytes": 1 << 20,
}

// Profile is one run normalized for comparison: phase -> resource -> value.
type Profile struct {
	// Source labels where the profile came from (a file path, "ledger", ...).
	Source string
	// Tool is the producing artifact kind: "report", "bench", or "ledger".
	Tool      string
	RunID     string
	InputHash string
	Cold      bool
	Env       *resource.Env
	Phases    map[string]map[string]float64
}

// FromReport builds a profile from a parsed run report.
// The span forest is flattened with duplicate names summing, mirroring the
// history ledger's aggregation, so report-vs-ledger comparisons line up.
func FromReport(rep *obs.Report, source string) *Profile {
	p := &Profile{Source: source, Tool: "report", RunID: rep.RunID, Env: rep.Env,
		Phases: map[string]map[string]float64{}}
	for phase, ms := range history.PhasesFromReport(rep) {
		p.Phases[phase] = map[string]float64{"wall_ms": ms}
	}
	for phase, r := range history.ResourcesFromReport(rep) {
		row := p.Phases[phase]
		row["cpu_ms"] = r.CPUMS
		row["allocs"] = float64(r.Allocs)
		row["alloc_bytes"] = float64(r.AllocBytes)
		row["gc_pause_ms"] = r.GCPauseMS
	}
	return p
}

// FromBench builds a profile from a benchmark report: each benchmark becomes
// a phase whose wall_ms is its ns/op. Bench sweeps carry no per-phase
// resource counters, so wall time is the only comparable resource.
func FromBench(rep *bench.BenchReport, source string) *Profile {
	p := &Profile{Source: source, Tool: "bench", Env: rep.Env,
		Phases: map[string]map[string]float64{}}
	for _, r := range rep.Results {
		p.Phases[r.Name] = map[string]float64{"wall_ms": r.NsPerOp / 1e6}
	}
	return p
}

// FromLoad builds a profile from a loadgen verdict (cirstag.load/v1): the
// latency quantiles become wall_ms pseudo-phases ("load.e2e_ms.p95"), so two
// load runs of the same workload shape diff through the same attribution
// machinery as pipeline phases — "the p95 under load regressed 40%" with the
// same noise floors and thresholds.
func FromLoad(v *load.Verdict, source string) *Profile {
	p := &Profile{Source: source, Tool: "load", RunID: v.RunID,
		InputHash: v.InputHash(), Phases: map[string]map[string]float64{}}
	for phase, ms := range v.Phases() {
		p.Phases[phase] = map[string]float64{"wall_ms": ms}
	}
	return p
}

// FromEntry builds a profile from a run-history ledger entry.
func FromEntry(e history.Entry, source string) *Profile {
	p := &Profile{Source: source, Tool: "ledger", RunID: e.RunID,
		InputHash: e.InputHash, Cold: e.Cold, Env: e.Env,
		Phases: map[string]map[string]float64{}}
	for phase, ms := range e.PhasesMS {
		p.Phases[phase] = map[string]float64{"wall_ms": ms}
	}
	for phase, r := range e.PhasesRes {
		row := p.Phases[phase]
		if row == nil {
			row = map[string]float64{}
			p.Phases[phase] = row
		}
		row["cpu_ms"] = r.CPUMS
		row["allocs"] = float64(r.Allocs)
		row["alloc_bytes"] = float64(r.AllocBytes)
		row["gc_pause_ms"] = r.GCPauseMS
	}
	return p
}

// Options tunes the comparison.
type Options struct {
	// ThresholdPct is the relative increase above which a (phase, resource)
	// counts as regressed. Default 25.
	ThresholdPct float64
	// Phases, when non-empty, restricts the GATE to phases matching any of
	// these name prefixes. Non-matching phases are still compared and listed,
	// but cannot fail the verdict — CI gates a stable phase allowlist while
	// the table keeps full visibility. A baseline phase matching a prefix
	// that is missing from the current side fails the verdict.
	Phases []string
}

// Delta is one (phase, resource) comparison row.
type Delta struct {
	Phase    string  `json:"phase"`
	Resource string  `json:"resource"`
	Base     float64 `json:"base"`
	Cur      float64 `json:"cur"`
	// DeltaPct is the relative change in percent; meaningful only for status
	// "ok" and "regressed" (it is 0 for "new"/"gone" rather than infinite).
	DeltaPct float64 `json:"delta_pct"`
	// Status: "ok", "regressed", "new" (appears only in current), or "gone"
	// (appears only in baseline; fails the verdict when Options.Phases gates
	// the phase and the phase is missing from the current side).
	Status string `json:"status"`
	// Gated reports whether this row was eligible to fail the verdict (it
	// matched the phase filter, or no filter was set).
	Gated bool `json:"gated,omitempty"`
}

// Verdict is the comparison outcome, serialized as cirstag.runcmp/v1.
type Verdict struct {
	Schema       string  `json:"schema"`
	ThresholdPct float64 `json:"threshold_pct"`
	// A is the baseline side, B the current side.
	A             Side     `json:"a"`
	B             Side     `json:"b"`
	EnvMismatches []string `json:"env_mismatches,omitempty"`
	// Deltas is ranked: comparable rows by DeltaPct descending (ties by phase
	// name, then canonical resource order), then "new"/"gone" rows by phase.
	Deltas    []Delta `json:"deltas"`
	Regressed bool    `json:"regressed"`
	// Top is the worst gated regression — the attribution answer — nil when
	// nothing regressed. A missing gated phase is named here only when no
	// comparable row regressed.
	Top *Delta `json:"top,omitempty"`
}

// Side identifies one compared artifact in the verdict.
type Side struct {
	Source    string `json:"source"`
	Tool      string `json:"tool"`
	RunID     string `json:"run_id,omitempty"`
	InputHash string `json:"input_hash,omitempty"`
	Cold      bool   `json:"cold,omitempty"`
}

func side(p *Profile) Side {
	return Side{Source: p.Source, Tool: p.Tool, RunID: p.RunID, InputHash: p.InputHash, Cold: p.Cold}
}

// Compare ranks b (current) against a (baseline).
func Compare(a, b *Profile, opts Options) *Verdict {
	if opts.ThresholdPct <= 0 {
		opts.ThresholdPct = 25
	}
	gated := func(phase string) bool {
		if len(opts.Phases) == 0 {
			return true
		}
		for _, pre := range opts.Phases {
			if strings.HasPrefix(phase, pre) {
				return true
			}
		}
		return false
	}
	// dropped reports a gated baseline phase the current side never ran.
	dropped := func(phase string) bool {
		_, ran := b.Phases[phase]
		return !ran && len(opts.Phases) > 0 && gated(phase)
	}

	v := &Verdict{
		Schema:        SchemaVersion,
		ThresholdPct:  opts.ThresholdPct,
		A:             side(a),
		B:             side(b),
		EnvMismatches: resource.Mismatches(a.Env, b.Env),
	}

	var ranked, oneSided []Delta
	for _, phase := range unionPhases(a, b) {
		for _, res := range Resources {
			av, aok := a.Phases[phase][res]
			bv, bok := b.Phases[phase][res]
			floor := noiseFloors[res]
			switch {
			case aok && av >= floor && bok:
				d := Delta{Phase: phase, Resource: res, Base: av, Cur: bv,
					DeltaPct: 100 * (bv - av) / av, Status: "ok", Gated: gated(phase)}
				if d.Gated && d.DeltaPct > opts.ThresholdPct {
					d.Status = "regressed"
				}
				ranked = append(ranked, d)
			case bok && bv >= floor && (!aok || av < floor):
				oneSided = append(oneSided, Delta{Phase: phase, Resource: res,
					Base: av, Cur: bv, Status: "new", Gated: gated(phase)})
			case aok && (av >= floor || dropped(phase)) && !bok:
				oneSided = append(oneSided, Delta{Phase: phase, Resource: res,
					Base: av, Cur: bv, Status: "gone", Gated: gated(phase)})
			}
			// Both below floor or both absent: noise, no row.
		}
	}

	resRank := map[string]int{}
	for i, r := range Resources {
		resRank[r] = i
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		if ranked[i].DeltaPct != ranked[j].DeltaPct {
			return ranked[i].DeltaPct > ranked[j].DeltaPct
		}
		if ranked[i].Phase != ranked[j].Phase {
			return ranked[i].Phase < ranked[j].Phase
		}
		return resRank[ranked[i].Resource] < resRank[ranked[j].Resource]
	})
	sort.SliceStable(oneSided, func(i, j int) bool {
		if oneSided[i].Phase != oneSided[j].Phase {
			return oneSided[i].Phase < oneSided[j].Phase
		}
		return resRank[oneSided[i].Resource] < resRank[oneSided[j].Resource]
	})
	v.Deltas = append(ranked, oneSided...)

	for _, d := range v.Deltas {
		if d.Status == "regressed" || d.Status == "gone" && dropped(d.Phase) {
			v.Top = &d
			break
		}
	}
	v.Regressed = v.Top != nil
	return v
}

func unionPhases(a, b *Profile) []string {
	set := map[string]bool{}
	for p := range a.Phases {
		set[p] = true
	}
	for p := range b.Phases {
		set[p] = true
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Table renders the verdict as a human-readable attribution table.
func (v *Verdict) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "baseline: %s (%s)\ncurrent:  %s (%s)\n", v.A.Source, v.A.Tool, v.B.Source, v.B.Tool)
	for _, m := range v.EnvMismatches {
		fmt.Fprintf(&sb, "warning: environment mismatch — %s\n", m)
	}
	fmt.Fprintf(&sb, "%-44s %-12s %14s %14s %9s  %s\n", "phase", "resource", "base", "current", "delta", "status")
	for _, d := range v.Deltas {
		mark := " "
		if d.Gated {
			mark = "*"
		}
		switch d.Status {
		case "new", "gone":
			fmt.Fprintf(&sb, "%s %-42s %-12s %14.6g %14.6g %9s  %s\n",
				mark, d.Phase, d.Resource, d.Base, d.Cur, "-", d.Status)
		default:
			fmt.Fprintf(&sb, "%s %-42s %-12s %14.6g %14.6g %+8.1f%%  %s\n",
				mark, d.Phase, d.Resource, d.Base, d.Cur, d.DeltaPct, d.Status)
		}
	}
	switch {
	case v.Top != nil && v.Top.Status == "gone":
		fmt.Fprintf(&sb, "top regression: %s missing from current (gated phase)\n", v.Top.Phase)
	case v.Top != nil:
		fmt.Fprintf(&sb, "top regression: %s %s %+.1f%% (threshold +%.0f%%)\n",
			v.Top.Phase, v.Top.Resource, v.Top.DeltaPct, v.ThresholdPct)
	default:
		fmt.Fprintf(&sb, "no regression above +%.0f%%\n", v.ThresholdPct)
	}
	return sb.String()
}

// WriteJSON serializes the verdict.
func (v *Verdict) WriteJSON() ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, cirerr.Wrap("runcmp.json", cirerr.ErrInternal, err)
	}
	return append(b, '\n'), nil
}

// ParseVerdict decodes and validates a verdict document.
func ParseVerdict(b []byte) (*Verdict, error) {
	var v Verdict
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, cirerr.Wrap("runcmp.parse", cirerr.ErrBadInput, err)
	}
	if v.Schema != SchemaVersion {
		return nil, cirerr.New("runcmp.parse", cirerr.ErrBadInput, "schema %q, want %q", v.Schema, SchemaVersion)
	}
	return &v, nil
}
