package obs

import (
	"runtime"
	"strings"
	"testing"
)

// withResources runs fn with both recording and resource accounting enabled,
// leaving the package disabled and clean afterwards.
func withResources(t *testing.T, fn func()) {
	t.Helper()
	withRecording(t, func() {
		EnableResources()
		defer DisableResources()
		fn()
	})
}

func TestResourceSpanDeltasInReport(t *testing.T) {
	withResources(t, func() {
		root := Start("res-root")
		child := root.Child("res-child")
		// Allocate enough in the child that its delta cannot round to zero.
		hold := make([][]byte, 0, 2048)
		for i := 0; i < 2048; i++ {
			hold = append(hold, make([]byte, 512))
		}
		runtime.KeepAlive(hold)
		child.End()
		root.End()

		rep := Snapshot()
		if rep.Schema != SchemaVersion {
			t.Fatalf("schema = %q, want %q", rep.Schema, SchemaVersion)
		}
		if rep.Env == nil || rep.Env.GoVersion != runtime.Version() {
			t.Fatalf("report env missing or wrong: %+v", rep.Env)
		}
		if len(rep.Spans) != 1 || len(rep.Spans[0].Children) != 1 {
			t.Fatalf("unexpected span forest: %+v", rep.Spans)
		}
		r, c := rep.Spans[0], rep.Spans[0].Children[0]
		if r.Res == nil || c.Res == nil {
			t.Fatalf("spans missing resource deltas: root=%+v child=%+v", r.Res, c.Res)
		}
		if c.Res.Allocs <= 0 || c.Res.AllocBytes <= 0 {
			t.Fatalf("allocation burst invisible in child delta: %+v", c.Res)
		}
		if r.Res.Allocs < c.Res.Allocs {
			t.Fatalf("root delta (%d allocs) smaller than contained child (%d)", r.Res.Allocs, c.Res.Allocs)
		}
		if c.Res.Goroutines < 1 {
			t.Fatalf("goroutine count must be >= 1: %+v", c.Res)
		}
		if c.Res.CPUMS < 0 || c.Res.GCPauseMS < 0 {
			t.Fatalf("negative time deltas: %+v", c.Res)
		}
		// The proc.* gauges must have been refreshed by the boundary samples.
		if rep.Gauges["proc.heap_allocs"] <= 0 || rep.Gauges["proc.goroutines"] <= 0 {
			t.Fatalf("proc gauges not refreshed: %v", rep.Gauges)
		}
	})
}

func TestResourceDisabledSpansCarryNoRes(t *testing.T) {
	withRecording(t, func() {
		s := Start("plain-root")
		s.Child("plain-child").End()
		s.End()
		rep := Snapshot()
		if len(rep.Spans) != 1 {
			t.Fatalf("unexpected span forest: %+v", rep.Spans)
		}
		if rep.Spans[0].Res != nil || rep.Spans[0].Children[0].Res != nil {
			t.Fatal("resource deltas recorded with resource accounting off")
		}
	})
}

// TestResourceDisabledZeroAllocs proves resource accounting is free when off:
// the fully-disabled obs path stays zero-alloc even with the resource switch
// on, and with obs on but resources off, ending a span allocates nothing.
func TestResourceDisabledZeroAllocs(t *testing.T) {
	// Part 1: obs disabled, resources enabled — the nil-span fast path must
	// stay untouched by the resource gate.
	Disable()
	Reset()
	EnableResources()
	if allocs := testing.AllocsPerRun(1000, func() {
		sp := Start("res-alloc-span")
		ch := sp.Child("res-alloc-child")
		ch.End()
		sp.End()
	}); allocs != 0 {
		t.Fatalf("disabled obs path with resources on allocates %.1f times per op, want 0", allocs)
	}
	DisableResources()
	Reset()

	// Part 2: obs enabled, resources disabled — End must not allocate (the
	// span creation cost is measured elsewhere; End is the hot boundary where
	// sampling would happen).
	Enable()
	defer func() {
		Disable()
		Reset()
	}()
	spans := make([]*Span, 0, 1101)
	for i := 0; i < 1101; i++ {
		spans = append(spans, Start("end-alloc-span"))
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		spans[i].End()
		i++
	}); allocs != 0 {
		t.Fatalf("End with resources off allocates %.1f times per op, want 0", allocs)
	}
}

func TestParseReportRejectsBadResources(t *testing.T) {
	cases := map[string]string{
		"negative allocs":   `{"schema":"cirstag.report/v2","go_version":"go1.22.0","gomaxprocs":1,"spans":[{"name":"x","start_ms":0,"duration_ms":1,"res":{"cpu_ms":1,"allocs":-5,"alloc_bytes":0,"gc_pause_ms":0,"goroutines":1}}]}`,
		"negative cpu":      `{"schema":"cirstag.report/v2","go_version":"go1.22.0","gomaxprocs":1,"spans":[{"name":"x","start_ms":0,"duration_ms":1,"res":{"cpu_ms":-1,"allocs":0,"alloc_bytes":0,"gc_pause_ms":0,"goroutines":1}}]}`,
		"NaN gc pause":      `{"schema":"cirstag.report/v2","go_version":"go1.22.0","gomaxprocs":1,"spans":[{"name":"x","start_ms":0,"duration_ms":1,"res":{"cpu_ms":0,"allocs":0,"alloc_bytes":0,"gc_pause_ms":"NaN","goroutines":1}}]}`,
		"unknown schema v3": `{"schema":"cirstag.report/v3","go_version":"go1.22.0","gomaxprocs":1}`,
	}
	for name, doc := range cases {
		if _, err := ParseReport([]byte(doc)); err == nil {
			t.Errorf("%s: invalid report accepted", name)
		} else if !strings.Contains(err.Error(), "obs:") {
			t.Errorf("%s: error missing obs prefix: %v", name, err)
		}
	}
}
