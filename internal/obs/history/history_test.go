package history

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cirstag/internal/cirerr"
	"cirstag/internal/obs"
)

func entry(hash string, cold bool, phases map[string]float64) Entry {
	return Entry{
		Schema:    SchemaVersion,
		RunID:     "test-run",
		Time:      "2026-08-06T00:00:00Z",
		Tool:      "test",
		InputHash: hash,
		Cold:      cold,
		PhasesMS:  phases,
	}
}

func TestAppendLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e1 := entry("abc", false, map[string]float64{"core.run": 12.5, "train_gnn": 900})
	e2 := entry("abc", true, map[string]float64{"core.run": 13})
	if err := Append(dir, e1); err != nil {
		t.Fatal(err)
	}
	if err := Append(dir, e2); err != nil {
		t.Fatal(err)
	}
	got, skipped, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("skipped %d lines on a clean ledger", skipped)
	}
	if len(got) != 2 {
		t.Fatalf("got %d entries, want 2", len(got))
	}
	if got[0].PhasesMS["core.run"] != 12.5 || !got[1].Cold {
		t.Fatalf("entries corrupted in round trip: %+v", got)
	}
}

func TestLoadMissingLedgerIsEmpty(t *testing.T) {
	got, skipped, err := Load(t.TempDir())
	if err != nil || skipped != 0 || len(got) != 0 {
		t.Fatalf("missing ledger: entries=%d skipped=%d err=%v", len(got), skipped, err)
	}
}

func TestLoadSkipsCorruptAndForeignLines(t *testing.T) {
	dir := t.TempDir()
	if err := Append(dir, entry("abc", false, map[string]float64{"p": 1})); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, LedgerFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A torn line (crash mid-append) and a line from a future schema.
	f.WriteString(`{"schema":"cirstag.history/v1","run_id":"torn`)
	f.WriteString("\n")
	f.WriteString(`{"schema":"cirstag.history/v9","run_id":"future","phases_ms":{}}` + "\n")
	f.Close()
	if err := Append(dir, entry("def", false, map[string]float64{"p": 2})); err != nil {
		t.Fatal(err)
	}

	got, skipped, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 2 {
		t.Fatalf("skipped = %d, want 2", skipped)
	}
	if len(got) != 2 || got[0].InputHash != "abc" || got[1].InputHash != "def" {
		t.Fatalf("readable entries lost: %+v", got)
	}
}

func TestAppendEmptyDirIsBadInput(t *testing.T) {
	err := Append("", entry("x", false, nil))
	if !errors.Is(err, cirerr.ErrBadInput) {
		t.Fatalf("err = %v, want ErrBadInput", err)
	}
}

func TestNewEntryFlattensSpans(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	root := obs.Start("hist-root")
	root.Child("hist-phase").End()
	root.Child("hist-phase").End() // duplicate name: durations sum
	root.End()

	e := NewEntry("cirstag", "hash123", true)
	if e.Schema != SchemaVersion || e.Tool != "cirstag" || e.InputHash != "hash123" || !e.Cold {
		t.Fatalf("entry header wrong: %+v", e)
	}
	if e.RunID == "" || e.Time == "" || e.GoVersion == "" {
		t.Fatalf("entry missing provenance: %+v", e)
	}
	if _, ok := e.PhasesMS["hist-root"]; !ok {
		t.Fatalf("root phase missing: %v", e.PhasesMS)
	}
	if _, ok := e.PhasesMS["hist-phase"]; !ok {
		t.Fatalf("child phase missing: %v", e.PhasesMS)
	}
	if len(e.PhasesMS) != 2 {
		t.Fatalf("phases = %v, want exactly hist-root and hist-phase (duplicates summed)", e.PhasesMS)
	}
}

func TestNewEntryCarriesResources(t *testing.T) {
	obs.Reset()
	obs.Enable()
	obs.EnableResources()
	defer func() {
		obs.DisableResources()
		obs.Disable()
		obs.Reset()
	}()
	root := obs.Start("res-root")
	root.Child("res-phase").End()
	root.Child("res-phase").End() // duplicate name: deltas sum
	root.End()

	e := NewEntry("cirstag", "hash456", false)
	if e.Env == nil || e.Env.GoVersion == "" {
		t.Fatalf("entry missing environment fingerprint: %+v", e.Env)
	}
	if len(e.PhasesRes) != 2 {
		t.Fatalf("phases_res = %v, want res-root and res-phase", e.PhasesRes)
	}
	rootRes, phaseRes := e.PhasesRes["res-root"], e.PhasesRes["res-phase"]
	if rootRes.Allocs <= 0 {
		t.Fatalf("root span saw no allocations (span machinery alone allocates): %+v", rootRes)
	}
	if phaseRes.Goroutines < 1 {
		t.Fatalf("goroutine point reading missing: %+v", phaseRes)
	}

	// Round trip through the ledger file: additive fields must survive.
	dir := t.TempDir()
	if err := Append(dir, e); err != nil {
		t.Fatal(err)
	}
	got, skipped, err := Load(dir)
	if err != nil || skipped != 0 || len(got) != 1 {
		t.Fatalf("round trip: entries=%d skipped=%d err=%v", len(got), skipped, err)
	}
	if got[0].Env == nil || got[0].Env.GoVersion != e.Env.GoVersion {
		t.Fatalf("env lost in round trip: %+v", got[0].Env)
	}
	if got[0].PhasesRes["res-root"].Allocs != rootRes.Allocs {
		t.Fatalf("phases_res lost in round trip: %+v", got[0].PhasesRes)
	}
}

func TestResourcesFromReportSumsDuplicates(t *testing.T) {
	rep := &obs.Report{
		Spans: []obs.SpanReport{{
			Name: "root",
			Res:  &obs.SpanResources{CPUMS: 10, Allocs: 100, AllocBytes: 1000, GCPauseMS: 1, Goroutines: 2},
			Children: []obs.SpanReport{
				{Name: "phase", Res: &obs.SpanResources{CPUMS: 3, Allocs: 30, AllocBytes: 300, GCPauseMS: 0.5, Goroutines: 2}},
				{Name: "phase", Res: &obs.SpanResources{CPUMS: 4, Allocs: 40, AllocBytes: 400, GCPauseMS: 0.25, Goroutines: 7}},
				{Name: "bare"}, // no delta recorded: contributes nothing
			},
		}},
	}
	got := ResourcesFromReport(rep)
	if len(got) != 2 {
		t.Fatalf("got %d phases, want 2 (bare span has no delta): %v", len(got), got)
	}
	p := got["phase"]
	if p.CPUMS != 7 || p.Allocs != 70 || p.AllocBytes != 700 || p.GCPauseMS != 0.75 {
		t.Fatalf("duplicate-name deltas not summed: %+v", p)
	}
	if p.Goroutines != 7 {
		t.Fatalf("goroutines should keep the last observation, got %d", p.Goroutines)
	}

	if ResourcesFromReport(&obs.Report{Spans: []obs.SpanReport{{Name: "x"}}}) != nil {
		t.Fatal("resource-less report must yield nil (omitted phases_res)")
	}
}
