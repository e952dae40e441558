package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"cirstag/internal/obs/resource"
)

// SchemaVersion identifies the JSON run-report layout. Consumers should
// reject reports whose schema field they do not recognize; additive changes
// keep the version, field removals or renames bump it. v2 added per-span
// resource deltas (SpanReport.Res) and the environment fingerprint
// (Report.Env).
const SchemaVersion = "cirstag.report/v2"

// Report is the machine-readable snapshot of everything recorded since the
// last Reset. Field names and JSON tags are a stable public contract (see
// DESIGN.md §8). The cache section is additive to schema v1: it is present
// exactly when an artifact cache was opened for the run; run_id and the span
// id/start_ms fields are additive too (they joined with the telemetry export
// layer so logs and traces correlate with reports).
type Report struct {
	Schema     string                `json:"schema"`
	RunID      string                `json:"run_id,omitempty"`
	GoVersion  string                `json:"go_version"`
	GoMaxProcs int                   `json:"gomaxprocs"`
	Env        *resource.Env         `json:"env,omitempty"`
	Spans      []SpanReport          `json:"spans,omitempty"`
	Counters   map[string]int64      `json:"counters,omitempty"`
	Gauges     map[string]float64    `json:"gauges,omitempty"`
	Histograms map[string]HistReport `json:"histograms,omitempty"`
	Cache      *CacheReport          `json:"cache,omitempty"`
}

// CacheReport summarizes artifact-cache activity for the run. HitRate is
// Hits/(Hits+Misses), 0 when the cache saw no traffic.
type CacheReport struct {
	Dir          string  `json:"dir"`
	Hits         int64   `json:"hits"`
	Misses       int64   `json:"misses"`
	Corruptions  int64   `json:"corruptions"`
	BytesRead    int64   `json:"bytes_read"`
	BytesWritten int64   `json:"bytes_written"`
	HitRate      float64 `json:"hit_rate"`
}

// cacheReporter supplies the report's cache section. Installed by
// cache.Open; obs cannot import the cache package (it sits below it), so the
// dependency is inverted through this hook.
var cacheReporter atomic.Pointer[func() *CacheReport]

// SetCacheReporter installs (or, with nil, removes) the function that
// produces the run report's cache section.
func SetCacheReporter(f func() *CacheReport) {
	if f == nil {
		cacheReporter.Store(nil)
		return
	}
	cacheReporter.Store(&f)
}

// SpanReport is one node of the serialized span tree. ID is the span's
// process-unique identifier (the value JSON log lines carry in their "span"
// field); StartMS is the span's start offset from the process epoch, which is
// what lets the trace exporter lay sibling spans out on a shared timeline.
type SpanReport struct {
	Name       string         `json:"name"`
	ID         uint64         `json:"id,omitempty"`
	StartMS    float64        `json:"start_ms"`
	DurationMS float64        `json:"duration_ms"`
	Res        *SpanResources `json:"res,omitempty"`
	Children   []SpanReport   `json:"children,omitempty"`
}

// SpanResources is the per-span resource delta recorded when resource
// accounting (EnableResources) is on. All counters are process-wide — a span
// that overlaps concurrent work sees that work's consumption too — and all
// fields except Goroutines are deltas over the span; Goroutines is the live
// count at span end.
type SpanResources struct {
	CPUMS      float64 `json:"cpu_ms"`
	Allocs     int64   `json:"allocs"`
	AllocBytes int64   `json:"alloc_bytes"`
	GCPauseMS  float64 `json:"gc_pause_ms"`
	Goroutines int     `json:"goroutines"`
}

// HistReport is the serialized form of a Histogram. Counts has one entry per
// bound plus a trailing overflow bucket (len(Counts) == len(Bounds)+1).
type HistReport struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Mean   float64   `json:"mean"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// Snapshot captures the current span forest and all metric values. Counters
// and histograms with zero activity are omitted so reports stay readable;
// gauges are included whenever they were ever set (a set-to-zero gauge is
// indistinguishable from unset and is omitted too).
func Snapshot() *Report {
	rep := &Report{
		Schema:     SchemaVersion,
		RunID:      RunID(),
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Env:        resource.CaptureEnv(),
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistReport{},
	}

	stateMu.Lock()
	for _, s := range roots {
		rep.Spans = append(rep.Spans, snapshotSpan(s))
	}
	stateMu.Unlock()

	registry.mu.Lock()
	for name, c := range registry.counters {
		if v := c.v.Load(); v != 0 {
			rep.Counters[name] = v
		}
	}
	for name, g := range registry.gauges {
		if v := math.Float64frombits(g.bits.Load()); v != 0 {
			rep.Gauges[name] = v
		}
	}
	for name, h := range registry.histograms {
		if h.count.Load() == 0 {
			continue
		}
		rep.Histograms[name] = snapshotHist(h)
	}
	registry.mu.Unlock()

	if f := cacheReporter.Load(); f != nil {
		rep.Cache = (*f)()
	}
	return rep
}

// SnapshotRoot captures a report scoped to one root span's subtree: the span
// forest contains exactly s and its descendants, while the metric registry,
// environment fingerprint, and cache section remain process-wide (counters
// are cumulative across the process by design — a scoped report documents
// "the state of the world when this unit of work finished", which is what a
// job server hands back per job). Returns nil for a nil span, so disabled-obs
// callers need no branch.
func SnapshotRoot(s *Span) *Report {
	if s == nil {
		return nil
	}
	rep := Snapshot()
	rep.Spans = nil
	stateMu.Lock()
	rep.Spans = append(rep.Spans, snapshotSpan(s))
	stateMu.Unlock()
	return rep
}

// snapshotSpan deep-copies a span subtree; must hold stateMu. Unfinished
// spans report the elapsed time so far. Children are ordered by start time,
// which makes the tree stable regardless of which concurrent sibling
// registered first.
func snapshotSpan(s *Span) SpanReport {
	d := s.dur
	if !s.ended {
		d = time.Since(s.start)
	}
	out := SpanReport{
		Name:       s.name,
		ID:         s.id,
		StartMS:    float64(s.start.Sub(epoch)) / float64(time.Millisecond),
		DurationMS: float64(d) / float64(time.Millisecond),
	}
	if s.hasRes {
		out.Res = &SpanResources{
			CPUMS:      s.res.CPUMS,
			Allocs:     s.res.Allocs,
			AllocBytes: s.res.AllocBytes,
			GCPauseMS:  s.res.GCPauseMS,
			Goroutines: s.res.Goroutines,
		}
	}
	kids := append([]*Span(nil), s.children...)
	sort.SliceStable(kids, func(a, b int) bool { return kids[a].start.Before(kids[b].start) })
	for _, c := range kids {
		out.Children = append(out.Children, snapshotSpan(c))
	}
	return out
}

// ParseReport decodes and validates a JSON run report produced by WriteJSON /
// WriteReportFile (the -report flag). It rejects unknown schema versions and
// structurally inconsistent sections, so downstream consumers (CI assertions,
// report-diff tooling) can trust a parsed report's shape without re-checking.
func ParseReport(b []byte) (*Report, error) {
	var rep Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("obs: parsing report: %w", err)
	}
	if rep.Schema != SchemaVersion {
		return nil, fmt.Errorf("obs: report schema %q, want %q", rep.Schema, SchemaVersion)
	}
	for name, h := range rep.Histograms {
		if len(h.Counts) != len(h.Bounds)+1 {
			return nil, fmt.Errorf("obs: histogram %q has %d counts for %d bounds (want bounds+1)", name, len(h.Counts), len(h.Bounds))
		}
		if h.Count < 0 {
			return nil, fmt.Errorf("obs: histogram %q has negative count %d", name, h.Count)
		}
		for i := 1; i < len(h.Bounds); i++ {
			if !(h.Bounds[i] > h.Bounds[i-1]) {
				return nil, fmt.Errorf("obs: histogram %q bounds not strictly increasing at %d", name, i)
			}
		}
	}
	var checkSpans func(spans []SpanReport) error
	checkSpans = func(spans []SpanReport) error {
		for _, s := range spans {
			if s.Name == "" {
				return fmt.Errorf("obs: report contains an unnamed span")
			}
			if math.IsNaN(s.DurationMS) || math.IsInf(s.DurationMS, 0) || s.DurationMS < 0 {
				return fmt.Errorf("obs: span %q has invalid duration %v", s.Name, s.DurationMS)
			}
			if math.IsNaN(s.StartMS) || math.IsInf(s.StartMS, 0) {
				return fmt.Errorf("obs: span %q has invalid start %v", s.Name, s.StartMS)
			}
			if r := s.Res; r != nil {
				if math.IsNaN(r.CPUMS) || math.IsInf(r.CPUMS, 0) || r.CPUMS < 0 ||
					math.IsNaN(r.GCPauseMS) || math.IsInf(r.GCPauseMS, 0) || r.GCPauseMS < 0 {
					return fmt.Errorf("obs: span %q has invalid resource times (cpu_ms=%v gc_pause_ms=%v)", s.Name, r.CPUMS, r.GCPauseMS)
				}
				if r.Allocs < 0 || r.AllocBytes < 0 || r.Goroutines < 0 {
					return fmt.Errorf("obs: span %q has negative resource counters", s.Name)
				}
			}
			if err := checkSpans(s.Children); err != nil {
				return err
			}
		}
		return nil
	}
	if err := checkSpans(rep.Spans); err != nil {
		return nil, err
	}
	if c := rep.Cache; c != nil {
		if c.Hits < 0 || c.Misses < 0 || c.Corruptions < 0 || c.BytesRead < 0 || c.BytesWritten < 0 {
			return nil, fmt.Errorf("obs: report cache section has negative counters")
		}
	}
	return &rep, nil
}

// WriteJSON writes the current Snapshot as indented JSON.
func WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteReportFile writes the JSON run report to path (the -report flag of
// cmd/cirstag and cmd/experiments).
func WriteReportFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteTree writes a human-readable summary — the span tree plus all active
// metrics — to w (the -v exit summary of cmd/cirstag).
func WriteTree(w io.Writer) {
	rep := Snapshot()
	if len(rep.Spans) > 0 {
		fmt.Fprintf(w, "--- span tree (wall time) ---\n")
		SpanTreeSummary(w, rep)
	}
	if len(rep.Counters) > 0 {
		fmt.Fprintf(w, "--- counters ---\n")
		for _, k := range sortedKeys(rep.Counters) {
			fmt.Fprintf(w, "  %-40s %12d\n", k, rep.Counters[k])
		}
	}
	if len(rep.Gauges) > 0 {
		fmt.Fprintf(w, "--- gauges ---\n")
		for _, k := range sortedKeys(rep.Gauges) {
			fmt.Fprintf(w, "  %-40s %12.6g\n", k, rep.Gauges[k])
		}
	}
	if len(rep.Histograms) > 0 {
		fmt.Fprintf(w, "--- histograms (count / mean / min / max) ---\n")
		for _, k := range sortedKeys(rep.Histograms) {
			h := rep.Histograms[k]
			fmt.Fprintf(w, "  %-40s %8d %12.6g %12.6g %12.6g\n", k, h.Count, h.Mean, h.Min, h.Max)
		}
	}
	if c := rep.Cache; c != nil {
		fmt.Fprintf(w, "--- cache (%s) ---\n", c.Dir)
		fmt.Fprintf(w, "  hits %d  misses %d  corruptions %d  read %dB  written %dB  hit-rate %.0f%%\n",
			c.Hits, c.Misses, c.Corruptions, c.BytesRead, c.BytesWritten, 100*c.HitRate)
	}
}

// SpanTreeSummary renders rep's span forest as an indented table: one row per
// span, wall time always, resource columns (CPU, allocations, GC pause) when
// the report carries per-span deltas (schema v2 with EnableResources).
//
// The name column is sized to the widest indented name, measured in runes —
// a %-*s pad counts bytes, which mis-aligns every row after a multi-byte name
// (span names derived from netlist identifiers can carry non-ASCII) — and
// never truncates, so deep trees of long shared-prefix names stay readable.
func SpanTreeSummary(w io.Writer, rep *Report) {
	nameWidth, hasRes := 0, false
	var measure func(spans []SpanReport, depth int)
	measure = func(spans []SpanReport, depth int) {
		for _, s := range spans {
			if n := 2*depth + utf8.RuneCountInString(s.Name); n > nameWidth {
				nameWidth = n
			}
			if s.Res != nil {
				hasRes = true
			}
			measure(s.Children, depth+1)
		}
	}
	measure(rep.Spans, 0)

	var emit func(spans []SpanReport, depth int)
	emit = func(spans []SpanReport, depth int) {
		for _, s := range spans {
			indent := 2 * depth
			pad := nameWidth - indent - utf8.RuneCountInString(s.Name)
			fmt.Fprintf(w, "  %*s%s%*s %10.1fms", indent, "", s.Name, pad, "", s.DurationMS)
			if hasRes {
				if r := s.Res; r != nil {
					fmt.Fprintf(w, "  cpu %9.1fms  allocs %11d  bytes %13d  gc %7.2fms", r.CPUMS, r.Allocs, r.AllocBytes, r.GCPauseMS)
				} else {
					fmt.Fprintf(w, "  %s", "(no resource sample)")
				}
			}
			fmt.Fprintln(w)
			emit(s.Children, depth+1)
		}
	}
	emit(rep.Spans, 0)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
