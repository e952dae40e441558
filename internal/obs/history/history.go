// Package history is the run-history subsystem of the CirSTAG telemetry
// layer: an append-only JSONL ledger of per-run phase latencies keyed by
// input hash.
//
// The ledger is the cross-run complement of the single-run report
// (cirstag.report/v2): every `cirstag -history-dir DIR` invocation appends
// one line, `benchgen -bench-json -history-dir DIR` appends bench sweeps to
// the same file, and `runcmp -ledger DIR` gates the newest entry against the
// most recent comparable one, exiting 1 and naming the regressed phase.
package history

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cirstag/internal/cirerr"
	"cirstag/internal/obs"
	"cirstag/internal/obs/resource"
)

// SchemaVersion identifies the ledger entry layout. Entries with an
// unrecognized schema are skipped by Load (forward compatibility: an old
// binary reading a ledger extended by a newer one must not misinterpret it).
const SchemaVersion = "cirstag.history/v1"

// LedgerFile is the ledger's file name inside a history directory.
const LedgerFile = "ledger.jsonl"

// Entry is one ledger line: the per-phase wall-time profile of one run.
type Entry struct {
	Schema string `json:"schema"`
	// RunID correlates the entry with the run's logs, trace, and report.
	RunID string `json:"run_id"`
	// Time is the completion time, RFC 3339 with nanoseconds.
	Time string `json:"time"`
	// Tool is the producing binary: "cirstag", "experiments", or "benchgen".
	Tool string `json:"tool"`
	// InputHash fingerprints the analyzed input (netlist content hash for
	// analysis runs, the benchmark sweep identity for bench runs).
	// `runcmp -ledger` only compares entries with equal hashes — timings of
	// different designs are not comparable.
	InputHash string `json:"input_hash"`
	// Cold marks runs that executed with the artifact cache disabled; their
	// phase profile includes work warm runs skip, so `runcmp -ledger` treats
	// cold and warm populations separately.
	Cold bool `json:"cold,omitempty"`
	// PhasesMS maps phase (span) name to total wall milliseconds.
	PhasesMS map[string]float64 `json:"phases_ms"`
	// PhasesRes maps phase name to its summed resource deltas. Present only
	// for runs recorded with resource accounting on (obs.EnableResources);
	// additive to schema v1 — old binaries ignore it, old entries omit it.
	PhasesRes map[string]obs.SpanResources `json:"phases_res,omitempty"`
	// Env fingerprints the environment the run executed in, so cross-run
	// comparison tooling (cmd/runcmp) can flag incomparable entries.
	// Additive to schema v1.
	Env       *resource.Env `json:"env,omitempty"`
	GoVersion string        `json:"go_version,omitempty"`
}

// NewEntry builds a ledger entry for the current obs snapshot: PhasesMS is
// the flattened span forest (duplicate span names sum), PhasesRes the
// matching resource deltas when the snapshot carries any.
func NewEntry(tool, inputHash string, cold bool) Entry {
	return EntryFromReport(obs.Snapshot(), tool, inputHash, cold)
}

// EntryFromReport builds a ledger entry from an explicit report snapshot
// rather than the process-global one. This is what lets a long-running
// process ledger many units of work independently: the cirstagd job server
// snapshots each job's span subtree (obs.SnapshotRoot) and appends one entry
// per completed job. The entry's RunID is taken from the report; callers that
// want a per-unit identifier (the server uses the job ID) overwrite it before
// Append.
func EntryFromReport(rep *obs.Report, tool, inputHash string, cold bool) Entry {
	return Entry{
		Schema:    SchemaVersion,
		RunID:     rep.RunID,
		Time:      time.Now().Format(time.RFC3339Nano),
		Tool:      tool,
		InputHash: inputHash,
		Cold:      cold,
		PhasesMS:  PhasesFromReport(rep),
		PhasesRes: ResourcesFromReport(rep),
		Env:       rep.Env,
		GoVersion: runtime.Version(),
	}
}

// PhasesFromReport flattens a report's span forest into phase name -> total
// wall milliseconds. A span name appearing several times (repeated
// experiments, per-design loops) sums its durations.
func PhasesFromReport(rep *obs.Report) map[string]float64 {
	phases := map[string]float64{}
	var walk func(s obs.SpanReport)
	walk = func(s obs.SpanReport) {
		phases[s.Name] += s.DurationMS
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, s := range rep.Spans {
		walk(s)
	}
	return phases
}

// ResourcesFromReport flattens a report's span forest into phase name ->
// summed resource deltas, mirroring PhasesFromReport's aggregation (repeated
// span names sum their deltas; Goroutines keeps the last observation, matching
// its point-in-time semantics). Returns nil when no span carries a delta, so
// entries from resource-less runs omit the phases_res field entirely.
func ResourcesFromReport(rep *obs.Report) map[string]obs.SpanResources {
	phases := map[string]obs.SpanResources{}
	var walk func(s obs.SpanReport)
	walk = func(s obs.SpanReport) {
		if r := s.Res; r != nil {
			acc := phases[s.Name]
			acc.CPUMS += r.CPUMS
			acc.Allocs += r.Allocs
			acc.AllocBytes += r.AllocBytes
			acc.GCPauseMS += r.GCPauseMS
			acc.Goroutines = r.Goroutines
			phases[s.Name] = acc
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, s := range rep.Spans {
		walk(s)
	}
	if len(phases) == 0 {
		return nil
	}
	return phases
}

// Append writes one entry to the ledger in dir, creating the directory and
// file as needed. The entry is rendered first and written with a single
// O_APPEND write, so concurrent appenders interleave whole lines only.
func Append(dir string, e Entry) error {
	if dir == "" {
		return cirerr.New("history.append", cirerr.ErrBadInput, "empty history directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return cirerr.Wrap("history.append", cirerr.ErrBadInput, err)
	}
	b, err := json.Marshal(&e)
	if err != nil {
		return cirerr.Wrap("history.append", cirerr.ErrInternal, err)
	}
	b = append(b, '\n')
	f, err := os.OpenFile(filepath.Join(dir, LedgerFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return cirerr.Wrap("history.append", cirerr.ErrBadInput, err)
	}
	_, werr := f.Write(b)
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	return cirerr.Wrap("history.append", cirerr.ErrBadInput, werr)
}

// Load reads the ledger in dir. Lines that fail to parse or carry an unknown
// schema are skipped and counted (a crash mid-append can leave one torn
// trailing line; an old binary may meet entries from a newer schema) — the
// readable prefix of history stays usable either way. A missing ledger is an
// empty history, not an error.
func Load(dir string) (entries []Entry, skipped int, err error) {
	f, err := os.Open(filepath.Join(dir, LedgerFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, cirerr.Wrap("history.load", cirerr.ErrBadInput, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Entry
		if json.Unmarshal(line, &e) != nil || e.Schema != SchemaVersion {
			skipped++
			continue
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return entries, skipped, cirerr.Wrap("history.load", cirerr.ErrCorruptArtifact, err)
	}
	return entries, skipped, nil
}
