package obs

import (
	"sync"
	"sync/atomic"

	"cirstag/internal/obs/resource"
)

// Resource accounting sits behind its own atomic switch, exactly like trace
// recording (EnableTrace): spans always record wall time when obs is enabled,
// but sampling the process resource counters costs a runtime.ReadMemStats
// stop-the-world per span boundary, so it is opt-in. The CLIs switch it on
// together with obs.Enable; libraries never touch it.
var resOn atomic.Bool

// EnableResources turns on per-span resource accounting. Spans started while
// enabled carry CPU, allocation, GC-pause, and goroutine deltas in the run
// report (SpanReport.Res, schema cirstag.report/v2).
func EnableResources() { resOn.Store(true) }

// DisableResources turns per-span resource accounting off. Spans already
// carrying deltas keep them.
func DisableResources() { resOn.Store(false) }

// ResourcesEnabled reports whether per-span resource accounting is on.
func ResourcesEnabled() bool { return resOn.Load() }

// Process-wide resource gauges, refreshed at every span-boundary sample.
// They surface the same counters the span deltas are computed from as
// Prometheus families (cirstag_proc_*) on the debug server's /metrics.
var (
	procCPUMS      = NewGauge("proc.cpu_ms")
	procAllocs     = NewGauge("proc.heap_allocs")
	procAllocBytes = NewGauge("proc.heap_alloc_bytes")
	procGCPauseMS  = NewGauge("proc.gc_pause_ms")
	procGoroutines = NewGauge("proc.goroutines")
)

// sampleUsage reads the process resource counters and mirrors them into the
// proc.* gauges. Only called from span boundaries with resOn checked by the
// caller.
func sampleUsage() resource.Usage {
	u := resource.Sample()
	procCPUMS.Set(float64(u.CPU) / 1e6)
	procAllocs.Set(float64(u.Allocs))
	procAllocBytes.Set(float64(u.AllocBytes))
	procGCPauseMS.Set(float64(u.GCPause) / 1e6)
	procGoroutines.Set(float64(u.Goroutines))
	return u
}

// SpanEvent describes a span lifecycle transition delivered to the installed
// span observers. Depth is 0 for roots; End distinguishes the start
// notification from the end one. Root is the span ID of the owning root span
// (Root == ID for roots), which lets an observer route a sub-span to the unit
// of work that started it — the job server routes depth-1 phase spans to
// their job's event stream this way. DurationMS is the finalized wall time in
// milliseconds on end events and 0 on start events.
type SpanEvent struct {
	Name       string
	ID         uint64
	Root       uint64
	Depth      int
	End        bool
	DurationMS float64
}

// spanObservers is the span lifecycle hook chain. The profile capture layer
// (internal/obs/profile) installs one to write phase-boundary heap snapshots
// and the service layer installs another to publish phase events; obs cannot
// import either (import cycle with the CLIs' wiring), so the dependency is
// inverted through this copy-on-write list, mirroring SetMetricsHandler. The
// slice behind the pointer is never mutated after publication, so readers
// need only the atomic load; nil means "no observers" and keeps the
// uninstrumented fast path allocation-free.
var spanObservers atomic.Pointer[[]func(SpanEvent)]

// spanObserversMu serializes observer list edits (Add/remove/Set);
// spanObserverRegs is the mutable source of truth the published slice is
// compiled from, so removals identify their entry by token rather than index.
var (
	spanObserversMu  sync.Mutex
	spanObserverRegs []*spanObserverReg
)

type spanObserverReg struct{ f func(SpanEvent) }

// publishSpanObserversLocked recompiles the read-only callback slice from the
// registration list. Caller holds spanObserversMu.
func publishSpanObserversLocked() {
	if len(spanObserverRegs) == 0 {
		spanObservers.Store(nil)
		return
	}
	next := make([]func(SpanEvent), len(spanObserverRegs))
	for i, r := range spanObserverRegs {
		next[i] = r.f
	}
	spanObservers.Store(&next)
}

// AddSpanObserver appends a callback invoked at every span start and end
// while observability is enabled, and returns a function that removes it
// (idempotent). Callbacks run on the goroutine driving the span, outside obs
// locks, AFTER the span's duration and resource delta are finalized — so an
// observer that forces a GC (heap profiling) cannot pollute the measurements
// of the span that triggered it. Observers must be fast and must not call
// back into the span API for the same span.
func AddSpanObserver(f func(SpanEvent)) (remove func()) {
	reg := &spanObserverReg{f: f}
	spanObserversMu.Lock()
	spanObserverRegs = append(spanObserverRegs, reg)
	publishSpanObserversLocked()
	spanObserversMu.Unlock()
	return func() {
		spanObserversMu.Lock()
		defer spanObserversMu.Unlock()
		for i, r := range spanObserverRegs {
			if r == reg {
				spanObserverRegs = append(spanObserverRegs[:i:i], spanObserverRegs[i+1:]...)
				publishSpanObserversLocked()
				return
			}
		}
	}
}

// notifySpan delivers a lifecycle event to every installed observer. The
// empty fast path is a single atomic load so uninstrumented runs pay
// nothing.
func notifySpan(s *Span, end bool) {
	obsList := spanObservers.Load()
	if obsList == nil {
		return
	}
	ev := SpanEvent{Name: s.name, ID: s.id, Depth: s.depth, End: end}
	if end {
		ev.DurationMS = float64(s.dur) / 1e6
	}
	root := s
	for root.parent != nil {
		root = root.parent
	}
	ev.Root = root.id
	for _, f := range *obsList {
		f(ev)
	}
}
