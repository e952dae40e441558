package runcmp

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"cirstag/internal/bench"
	"cirstag/internal/load"
	"cirstag/internal/obs"
	"cirstag/internal/obs/history"
	"cirstag/internal/obs/resource"
)

func prof(phases map[string]map[string]float64) *Profile {
	return &Profile{Source: "test", Tool: "report", Phases: phases}
}

func TestCompareRanksByRelativeDelta(t *testing.T) {
	a := prof(map[string]map[string]float64{
		"core.run":   {"wall_ms": 100, "cpu_ms": 200},
		"eigensolve": {"wall_ms": 50, "cpu_ms": 80},
	})
	b := prof(map[string]map[string]float64{
		"core.run":   {"wall_ms": 130, "cpu_ms": 210}, // +30% wall, +5% cpu
		"eigensolve": {"wall_ms": 55, "cpu_ms": 160},  // +10% wall, +100% cpu
	})
	v := Compare(a, b, Options{ThresholdPct: 25})
	if !v.Regressed {
		t.Fatal("verdict should be regressed")
	}
	if v.Top == nil || v.Top.Phase != "eigensolve" || v.Top.Resource != "cpu_ms" {
		t.Fatalf("top attribution = %+v, want eigensolve cpu_ms", v.Top)
	}
	if math.Abs(v.Top.DeltaPct-100) > 1e-9 {
		t.Fatalf("top delta = %v, want +100%%", v.Top.DeltaPct)
	}
	// Ranked rows are ordered by delta descending.
	for i := 1; i < len(v.Deltas); i++ {
		if v.Deltas[i].Status == "new" || v.Deltas[i].Status == "gone" {
			break
		}
		if v.Deltas[i].DeltaPct > v.Deltas[i-1].DeltaPct {
			t.Fatalf("rows out of order at %d: %+v", i, v.Deltas)
		}
	}
	// Exactly one regressed row besides the +100%: core.run wall +30%.
	var regressed []Delta
	for _, d := range v.Deltas {
		if d.Status == "regressed" {
			regressed = append(regressed, d)
		}
	}
	if len(regressed) != 2 {
		t.Fatalf("regressed rows = %+v, want 2", regressed)
	}
}

func TestCompareDeterministicTieBreak(t *testing.T) {
	a := prof(map[string]map[string]float64{
		"alpha": {"wall_ms": 100, "cpu_ms": 100},
		"beta":  {"wall_ms": 100},
	})
	b := prof(map[string]map[string]float64{
		"alpha": {"wall_ms": 150, "cpu_ms": 150},
		"beta":  {"wall_ms": 150},
	})
	v1 := Compare(a, b, Options{})
	v2 := Compare(a, b, Options{})
	j1, _ := v1.WriteJSON()
	j2, _ := v2.WriteJSON()
	if string(j1) != string(j2) {
		t.Fatal("identical inputs produced different verdicts")
	}
	// All three rows are +50%: ties break by phase name then resource order.
	want := []struct{ phase, res string }{
		{"alpha", "wall_ms"}, {"alpha", "cpu_ms"}, {"beta", "wall_ms"},
	}
	for i, w := range want {
		if v1.Deltas[i].Phase != w.phase || v1.Deltas[i].Resource != w.res {
			t.Fatalf("row %d = %s/%s, want %s/%s", i, v1.Deltas[i].Phase, v1.Deltas[i].Resource, w.phase, w.res)
		}
	}
}

func TestCompareNoiseFloors(t *testing.T) {
	a := prof(map[string]map[string]float64{
		"tiny": {"wall_ms": 0.01, "allocs": 100},
	})
	b := prof(map[string]map[string]float64{
		"tiny": {"wall_ms": 0.09, "allocs": 900}, // 9x, but far below the floors
	})
	v := Compare(a, b, Options{})
	if v.Regressed || len(v.Deltas) != 0 {
		t.Fatalf("sub-floor noise produced rows: %+v", v.Deltas)
	}
}

func TestCompareNewAndGoneStayFinite(t *testing.T) {
	a := prof(map[string]map[string]float64{
		"train_gnn": {"wall_ms": 500},
	})
	b := prof(map[string]map[string]float64{
		"load_gnn": {"wall_ms": 30},
	})
	v := Compare(a, b, Options{})
	if v.Regressed {
		t.Fatal("new/gone must not fail the gate")
	}
	byKey := map[string]Delta{}
	for _, d := range v.Deltas {
		byKey[d.Phase] = d
	}
	if byKey["load_gnn"].Status != "new" || byKey["train_gnn"].Status != "gone" {
		t.Fatalf("statuses wrong: %+v", v.Deltas)
	}
	out, err := v.WriteJSON()
	if err != nil {
		t.Fatalf("verdict with one-sided rows not serializable: %v", err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(out, &parsed); err != nil {
		t.Fatalf("verdict JSON invalid: %v", err)
	}
}

func TestComparePhaseFilterGatesButStillLists(t *testing.T) {
	a := prof(map[string]map[string]float64{
		"CoreRun/parallel": {"wall_ms": 100},
		"experiment.dmd":   {"wall_ms": 100},
	})
	b := prof(map[string]map[string]float64{
		"CoreRun/parallel": {"wall_ms": 110},
		"experiment.dmd":   {"wall_ms": 400}, // huge, but outside the gate
	})
	v := Compare(a, b, Options{ThresholdPct: 25, Phases: []string{"CoreRun", "KNNBuild"}})
	if v.Regressed {
		t.Fatal("ungated phase must not fail the verdict")
	}
	found := false
	for _, d := range v.Deltas {
		if d.Phase == "experiment.dmd" {
			found = true
			if d.Gated || d.Status != "ok" {
				t.Fatalf("ungated row misclassified: %+v", d)
			}
		}
	}
	if !found {
		t.Fatal("ungated phase missing from the table")
	}

	// Same comparison, gate covering the big delta: now it fails.
	v = Compare(a, b, Options{ThresholdPct: 25, Phases: []string{"experiment."}})
	if !v.Regressed || v.Top == nil || v.Top.Phase != "experiment.dmd" {
		t.Fatalf("gated regression missed: %+v", v.Top)
	}
}

// TestComparePhaseGate is the regression gate's rule table under a phase
// allowlist: a gated phase fails above the threshold or when the current side
// no longer runs it, and the table names it; an ungated phase never fails.
func TestComparePhaseGate(t *testing.T) {
	opts := Options{ThresholdPct: 25, Phases: []string{"CoreRun", "KNNBuild"}}
	type phases = map[string]map[string]float64
	for _, tc := range []struct {
		name      string
		base, cur phases
		wantTop   string // phase the verdict must name; "" means it passes
	}{
		{"gated +20% passes",
			phases{"CoreRun/serial": {"wall_ms": 100}, "KNNBuild/parallel": {"wall_ms": 50}},
			phases{"CoreRun/serial": {"wall_ms": 120}, "KNNBuild/parallel": {"wall_ms": 40}}, ""},
		{"gated +30% fails",
			phases{"CoreRun/serial": {"wall_ms": 100}},
			phases{"CoreRun/serial": {"wall_ms": 130}}, "CoreRun/serial"},
		{"ungated +30% passes",
			phases{"TableI": {"wall_ms": 100}},
			phases{"TableI": {"wall_ms": 130}}, ""},
		// Below the wall_ms noise floor on purpose: a phase that stopped
		// running is a structural change, not timing noise.
		{"gated missing fails",
			phases{"KNNBuild/parallel": {"wall_ms": 0.05}},
			phases{}, "KNNBuild/parallel"},
		{"ungated missing passes",
			phases{"TableI": {"wall_ms": 100}},
			phases{}, ""},
		// The phase still runs; only a resource column is absent.
		{"gated phase without resource columns passes",
			phases{"CoreRun/serial": {"wall_ms": 100, "cpu_ms": 90}},
			phases{"CoreRun/serial": {"wall_ms": 100}}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := Compare(prof(tc.base), prof(tc.cur), opts)
			table := v.Table()
			if tc.wantTop == "" {
				if v.Regressed || v.Top != nil {
					t.Fatalf("verdict failed, want pass:\n%s", table)
				}
				return
			}
			if !v.Regressed || v.Top == nil || v.Top.Phase != tc.wantTop {
				t.Fatalf("verdict top = %+v, want a failure naming %s:\n%s", v.Top, tc.wantTop, table)
			}
			if !strings.Contains(table, "top regression: "+tc.wantTop+" ") {
				t.Fatalf("table does not name %s:\n%s", tc.wantTop, table)
			}
		})
	}
}

func TestCompareEnvMismatchWarns(t *testing.T) {
	envA := &resource.Env{GoVersion: "go1.22.0", GoMaxProcs: 4, NumCPU: 4, OS: "linux", Arch: "amd64"}
	envB := &resource.Env{GoVersion: "go1.24.0", GoMaxProcs: 4, NumCPU: 4, OS: "linux", Arch: "amd64"}
	a := prof(nil)
	b := prof(nil)
	a.Env, b.Env = envA, envB
	v := Compare(a, b, Options{})
	if len(v.EnvMismatches) != 1 || !strings.Contains(v.EnvMismatches[0], "go_version") {
		t.Fatalf("env mismatch not surfaced: %v", v.EnvMismatches)
	}
	if !strings.Contains(v.Table(), "environment mismatch") {
		t.Fatal("table missing env warning")
	}
}

func TestFromReportFlattensLikeLedger(t *testing.T) {
	rep := &obs.Report{
		RunID: "r1",
		Env:   &resource.Env{GoVersion: "go1.22.0"},
		Spans: []obs.SpanReport{{
			Name: "core.run", DurationMS: 100,
			Res: &obs.SpanResources{CPUMS: 90, Allocs: 50_000, AllocBytes: 5 << 20, GCPauseMS: 2},
			Children: []obs.SpanReport{
				{Name: "knn", DurationMS: 30, Res: &obs.SpanResources{CPUMS: 25, Allocs: 20_000, AllocBytes: 2 << 20, GCPauseMS: 1}},
				{Name: "knn", DurationMS: 10, Res: &obs.SpanResources{CPUMS: 5, Allocs: 10_000, AllocBytes: 1 << 20, GCPauseMS: 0.5}},
			},
		}},
	}
	p := FromReport(rep, "run.json")
	if p.Phases["knn"]["wall_ms"] != 40 || p.Phases["knn"]["cpu_ms"] != 30 {
		t.Fatalf("duplicate spans not summed: %+v", p.Phases["knn"])
	}
	if p.Phases["core.run"]["allocs"] != 50_000 {
		t.Fatalf("resource columns lost: %+v", p.Phases["core.run"])
	}
	if p.Env == nil || p.RunID != "r1" {
		t.Fatalf("identity lost: %+v", p)
	}
}

func TestFromBenchAndFromEntry(t *testing.T) {
	br := &bench.BenchReport{
		Schema: bench.BenchSchemaVersion,
		Env:    &resource.Env{GoVersion: "go1.22.0"},
		Results: []bench.BenchResult{
			{Name: "CoreRun/parallel", NsPerOp: 25e6},
		},
	}
	p := FromBench(br, "baseline.json")
	if p.Phases["CoreRun/parallel"]["wall_ms"] != 25 {
		t.Fatalf("ns/op not converted to ms: %+v", p.Phases)
	}
	if p.Env == nil {
		t.Fatal("bench env lost")
	}

	e := history.Entry{
		RunID: "r2", InputHash: "h", Cold: true,
		PhasesMS:  map[string]float64{"core.run": 100},
		PhasesRes: map[string]obs.SpanResources{"core.run": {CPUMS: 80}},
		Env:       &resource.Env{GoVersion: "go1.22.0"},
	}
	pe := FromEntry(e, "ledger")
	if pe.Phases["core.run"]["wall_ms"] != 100 || pe.Phases["core.run"]["cpu_ms"] != 80 {
		t.Fatalf("entry profile wrong: %+v", pe.Phases)
	}
	if !pe.Cold || pe.InputHash != "h" {
		t.Fatalf("entry identity lost: %+v", pe)
	}
}

func TestVerdictJSONRoundTrip(t *testing.T) {
	a := prof(map[string]map[string]float64{"p": {"wall_ms": 10}})
	b := prof(map[string]map[string]float64{"p": {"wall_ms": 20}})
	v := Compare(a, b, Options{ThresholdPct: 25})
	out, err := v.WriteJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseVerdict(out)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaVersion || !got.Regressed || got.Top == nil {
		t.Fatalf("round trip lost verdict: %+v", got)
	}
	if _, err := ParseVerdict([]byte(`{"schema":"cirstag.runcmp/v9"}`)); err == nil {
		t.Fatal("unknown verdict schema accepted")
	}
}

func TestFromLoadDiffsLikeProfiles(t *testing.T) {
	mk := func(p95 float64) *load.Verdict {
		return &load.Verdict{
			Schema:      load.SchemaVersion,
			RunID:       "r",
			Config:      load.Config{Tenants: 2, Concurrency: 1, Jobs: 2, Kind: "netlist", Bench: "ss_pcm", Epochs: 5},
			E2EMS:       load.LatencyStats{Count: 4, P50: 100, P95: p95, P99: p95 + 1, Max: p95 + 2},
			QueueWaitMS: load.LatencyStats{Count: 4, P50: 10, P95: 20, P99: 21, Max: 22},
		}
	}
	a := FromLoad(mk(200), "a.json")
	b := FromLoad(mk(400), "b.json")
	if a.Tool != "load" || a.InputHash != b.InputHash {
		t.Fatalf("profiles = %+v / %+v, want same load input hash", a, b)
	}
	if a.Phases["load.e2e_ms.p95"]["wall_ms"] != 200 {
		t.Fatalf("phases = %+v", a.Phases)
	}
	v := Compare(a, b, Options{ThresholdPct: 25})
	if !v.Regressed {
		t.Fatalf("doubled load p95 not flagged: %+v", v.Deltas)
	}
	if v.Top == nil || v.Top.Phase != "load.e2e_ms.p95" {
		t.Fatalf("top = %+v, want load.e2e_ms.p95", v.Top)
	}
}
