package obs

import (
	"testing"
)

func TestWindowQuantiles(t *testing.T) {
	withRecording(t, func() {
		w := NewWindow("test.win.quantiles", 100)
		for i := 1; i <= 100; i++ {
			w.Observe(float64(i))
		}
		if got := w.Count(); got != 100 {
			t.Fatalf("Count = %d, want 100", got)
		}
		cases := []struct {
			q    float64
			want float64
		}{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1.0, 100}}
		for _, c := range cases {
			if got := w.Quantile(c.q); got != c.want {
				t.Errorf("Quantile(%.2f) = %v, want %v", c.q, got, c.want)
			}
		}
		s := w.Snapshot()
		if s.P50 != 50 || s.P95 != 95 || s.P99 != 99 || s.Max != 100 {
			t.Fatalf("Snapshot = %+v, want p50=50 p95=95 p99=99 max=100", s)
		}
		if s.Total != 100 {
			t.Fatalf("Snapshot.Total = %d, want 100", s.Total)
		}
	})
}

func TestWindowEvictsOldest(t *testing.T) {
	withRecording(t, func() {
		w := NewWindow("test.win.evict", 4)
		for i := 1; i <= 10; i++ {
			w.Observe(float64(i))
		}
		// Only 7..10 remain.
		if got := w.Count(); got != 4 {
			t.Fatalf("Count = %d, want 4", got)
		}
		if got := w.Quantile(0.5); got != 8 {
			t.Fatalf("p50 over last 4 = %v, want 8", got)
		}
		s := w.Snapshot()
		if s.Max != 10 || s.Total != 10 {
			t.Fatalf("Snapshot = %+v, want max=10 total=10", s)
		}
	})
}

func TestWindowSingleSampleAndEmpty(t *testing.T) {
	withRecording(t, func() {
		w := NewWindow("test.win.single", 8)
		if got := w.Quantile(0.95); got != 0 {
			t.Fatalf("empty window quantile = %v, want 0", got)
		}
		w.Observe(42)
		for _, q := range []float64{0.01, 0.5, 0.95, 1} {
			if got := w.Quantile(q); got != 42 {
				t.Fatalf("Quantile(%v) = %v, want 42", q, got)
			}
		}
	})
}

func TestWindowDisabledRecordsNothing(t *testing.T) {
	Disable()
	Reset()
	w := NewWindow("test.win.disabled", 8)
	w.Observe(5)
	if got := w.Count(); got != 0 {
		t.Fatalf("disabled Observe recorded %d samples, want 0", got)
	}
	var nilWin *Window
	nilWin.Observe(1) // must not panic
	if nilWin.Quantile(0.5) != 0 || nilWin.Count() != 0 {
		t.Fatal("nil window must report zeros")
	}
	if (nilWin.Snapshot() != WindowReport{}) {
		t.Fatal("nil window snapshot must be zero")
	}
}

func TestWindowRegistrationIdempotent(t *testing.T) {
	withRecording(t, func() {
		a := NewWindow("test.win.idem", 16)
		b := NewWindow("test.win.idem", 99)
		if a != b {
			t.Fatal("NewWindow must return the registered instance for a duplicate name")
		}
	})
}

func TestWindowMetricsSnapshotGauges(t *testing.T) {
	withRecording(t, func() {
		w := NewWindow("test.win.export", 10)
		for i := 1; i <= 10; i++ {
			w.Observe(float64(i) * 10)
		}
		got := map[string]float64{}
		for _, m := range MetricsSnapshot() {
			if m.Kind == KindGauge {
				got[m.Name] = m.Value
			}
		}
		want := map[string]float64{
			"test.win.export.p50":          50,
			"test.win.export.p95":          100,
			"test.win.export.p99":          100,
			"test.win.export.window_count": 10,
		}
		for name, v := range want {
			if got[name] != v {
				t.Errorf("snapshot gauge %s = %v, want %v", name, got[name], v)
			}
		}
	})
}

func TestWindowResetClears(t *testing.T) {
	withRecording(t, func() {
		w := NewWindow("test.win.reset", 8)
		w.Observe(3)
		Reset()
		if got := w.Count(); got != 0 {
			t.Fatalf("Count after Reset = %d, want 0", got)
		}
		if s := w.Snapshot(); s.Total != 0 || s.P50 != 0 {
			t.Fatalf("Snapshot after Reset = %+v, want zeros", s)
		}
	})
}

func TestAddSpanObserverChain(t *testing.T) {
	withRecording(t, func() {
		var a, b []SpanEvent
		removeA := AddSpanObserver(func(e SpanEvent) { a = append(a, e) })
		removeB := AddSpanObserver(func(e SpanEvent) { b = append(b, e) })
		defer removeA()
		defer removeB()

		root := Start("chain-root")
		child := root.Child("chain-child")
		child.End()
		root.End()

		if len(a) != 4 || len(b) != 4 {
			t.Fatalf("observer deliveries a=%d b=%d, want 4 each", len(a), len(b))
		}
		// Both child events must carry the root's span ID.
		for _, e := range a {
			if e.Root != root.ID() {
				t.Fatalf("event %+v Root = %d, want root id %d", e, e.Root, root.ID())
			}
		}
		if a[2].Name != "chain-child" || !a[2].End || a[2].DurationMS < 0 {
			t.Fatalf("third event = %+v, want chain-child end", a[2])
		}
		if a[3].DurationMS <= 0 {
			t.Fatalf("root end event DurationMS = %v, want > 0", a[3].DurationMS)
		}

		// Out-of-order removal: removing A must leave B installed.
		removeA()
		s := Start("after-remove")
		s.End()
		if len(a) != 4 {
			t.Fatalf("removed observer A still receiving events (%d)", len(a))
		}
		if len(b) != 6 {
			t.Fatalf("observer B deliveries after A removed = %d, want 6", len(b))
		}
		removeB()
		removeB() // idempotent
		s2 := Start("after-remove-all")
		s2.End()
		if len(b) != 6 {
			t.Fatal("removed observer B still receiving events")
		}
	})
}
