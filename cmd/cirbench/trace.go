package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"cirstag/internal/obs"
)

// spanRecord is one harness span: a timed call into a layer's public
// function, recorded by the benchmark around the call (the program itself is
// not instrumented). Parent is 0 for a root span.
type spanRecord struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

// tracer keeps the harness spans of a traced run in memory; write dumps them
// at exit. Spans may be recorded from concurrent goroutines (the replay
// builds both manifolds at once, as core.Run does). A nil *tracer records
// nothing, so code shared by traced and untraced runs need not branch.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []spanRecord
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	start := sinceMS(t.t0, time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRecord{ID: len(t.spans) + 1, Parent: parent, Name: name, StartMS: start})
	return len(t.spans)
}

// end closes span id and returns its duration in milliseconds.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	now := sinceMS(t.t0, time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndMS = now
	return s.EndMS - s.StartMS
}

// span runs fn inside a span and returns the span's duration in milliseconds.
func (t *tracer) span(name string, parent int, fn func()) float64 {
	id := t.begin(name, parent)
	fn()
	return t.end(id)
}

func (t *tracer) write(path string, stamp map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.MarshalIndent(map[string]any{"run": stamp, "spans": t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// counterNames maps per-layer count metrics onto the obs counters the
// program already keeps. The harness adds no counters of its own.
var counterNames = map[string]string{
	"eig.lanczos.iterations":         "eig.lanczos.iterations",
	"eig.generalized.iterations":     "eig.generalized.iterations",
	"eig.generalized.restarts":       "eig.generalized.restarts",
	"solver.laplacian.solves":        "solver.laplacian.solves",
	"solver.block.solves":            "solver.block.solves",
	"knn.queries":                    "knn.queries",
	"sparsify.sketch_uses":           "sparsify.sketch_resistance_uses",
	"core.incremental.changed_nodes": "core.incremental.changed_nodes",
	"pgm.patched_edges":              "pgm.patched_edges",
	"eig.warm.rounds":                "eig.warm.rounds",
	"eig.warm.fallbacks":             "eig.warm.fallbacks",
	"service.coalesced":              "service.coalesced",
	"events.dropped":                 "events.dropped",
}

// pcgHistogram is the obs histogram whose mean is solver.pcg.iterations_mean.
const pcgHistogram = "solver.pcg.iterations"

// counterState is a reading of the obs counters behind counterNames, plus
// the PCG iteration histogram's sum and count.
type counterState struct {
	counts       map[string]float64
	pcgSum, pcgN float64
}

func readCounters() counterState {
	st := counterState{counts: map[string]float64{}}
	for _, m := range obs.MetricsSnapshot() {
		switch {
		case m.Kind == obs.KindCounter:
			st.counts[m.Name] = m.Value
		case m.Kind == obs.KindHistogram && m.Name == pcgHistogram:
			st.pcgSum, st.pcgN = m.Hist.Sum, float64(m.Hist.Count)
		}
	}
	return st
}

// counterTotals accumulates counter deltas over the windows a traced run
// measures (obs counters count only while obs is enabled).
type counterTotals struct {
	start counterState
	sum   counterState
}

func (c *counterTotals) begin() { c.start = readCounters() }

func (c *counterTotals) end() {
	now := readCounters()
	if c.sum.counts == nil {
		c.sum.counts = map[string]float64{}
	}
	for name, v := range now.counts {
		c.sum.counts[name] += v - c.start.counts[name]
	}
	c.sum.pcgSum += now.pcgSum - c.start.pcgSum
	c.sum.pcgN += now.pcgN - c.start.pcgN
}

// report sets every count metric as its total divided by ops, the number of
// operations the windows covered, and the mean PCG iteration count.
func (c *counterTotals) report(out *outcome, ops int) {
	if ops < 1 {
		return
	}
	for metric, counter := range counterNames {
		out.set(metric, c.sum.counts[counter]/float64(ops), ops)
	}
	if c.sum.pcgN > 0 {
		out.set("solver.pcg.iterations_mean", c.sum.pcgSum/c.sum.pcgN, int(c.sum.pcgN))
	}
}

func sinceMS(from, to time.Time) float64 {
	return float64(to.Sub(from)) / float64(time.Millisecond)
}
