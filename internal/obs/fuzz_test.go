package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzReportJSON feeds arbitrary bytes to the run-report parser. ParseReport
// must never panic, and a report it accepts must survive a marshal/parse
// round trip (the schema is a stable contract; see DESIGN.md §8).
func FuzzReportJSON(f *testing.F) {
	// A real snapshot as the primary seed, plus handcrafted edge cases.
	if b, err := json.Marshal(Snapshot()); err == nil {
		f.Add(b)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"schema":"cirstag.report/v2"}`))
	f.Add([]byte(`{"schema":"cirstag.report/v2"}`))
	f.Add([]byte(`{"schema":"cirstag.report/v2","spans":[{"name":"run","duration_ms":1.5,"children":[{"name":"embed","duration_ms":1.0}]}]}`))
	f.Add([]byte(`{"schema":"cirstag.report/v2","spans":[{"name":"run","duration_ms":-1}]}`))
	f.Add([]byte(`{"schema":"cirstag.report/v2","histograms":{"h":{"count":1,"bounds":[1,2],"counts":[0,1,0]}}}`))
	f.Add([]byte(`{"schema":"cirstag.report/v2","histograms":{"h":{"count":1,"bounds":[2,1],"counts":[0,1,0]}}}`))
	f.Add([]byte(`{"schema":"cirstag.report/v2","cache":{"hits":-1}}`))
	f.Add([]byte(`{"schema":"cirstag.report/v2","spans":[{"name":"run","duration_ms":2,"res":{"cpu_ms":1.5,"allocs":10,"alloc_bytes":4096,"gc_pause_ms":0.1,"goroutines":8}}]}`))
	f.Add([]byte(`{"schema":"cirstag.report/v2","spans":[{"name":"run","duration_ms":2,"res":{"allocs":-1}}]}`))
	f.Add([]byte(`{"schema":"cirstag.report/v2","env":{"go_version":"go1.22.0","gomaxprocs":4,"num_cpu":4,"os":"linux","arch":"amd64"}}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := ParseReport(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("re-marshal of accepted report: %v", err)
		}
		rep2, err := ParseReport(out)
		if err != nil {
			t.Fatalf("re-parse of re-marshaled report: %v\njson: %s", err, out)
		}
		out2, err := json.Marshal(rep2)
		if err != nil {
			t.Fatalf("second marshal: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("report round trip not stable:\n%s\nvs\n%s", out, out2)
		}
	})
}
