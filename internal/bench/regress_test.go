package bench

import (
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: cirstag/internal/core
cpu: Some CPU @ 2.40GHz
BenchmarkCoreRun/serial-8         	       1	 120000000 ns/op
BenchmarkCoreRun/parallel-8       	       1	  40000000 ns/op	     3.0 speedup
PASS
ok  	cirstag/internal/core	1.911s
pkg: cirstag/internal/knn
BenchmarkKNNBuild/parallel-16     	       1	  15000000 ns/op
some stray log line mentioning BenchmarkCoreRun results
BenchmarkNotANumber abc 1 ns/op
ok  	cirstag/internal/knn	0.5s
`

func TestParseGoBench(t *testing.T) {
	results, err := ParseGoBench(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(results), results)
	}
	// Sorted by normalized name; the -8/-16 procs suffixes are stripped.
	want := []struct {
		name string
		ns   float64
	}{
		{"CoreRun/parallel", 4e7},
		{"CoreRun/serial", 1.2e8},
		{"KNNBuild/parallel", 1.5e7},
	}
	for i, w := range want {
		if results[i].Name != w.name || results[i].NsPerOp != w.ns {
			t.Fatalf("result %d = %+v, want %+v", i, results[i], w)
		}
	}
	if results[0].Metrics["speedup"] != 3.0 {
		t.Fatalf("extra metric not captured: %+v", results[0].Metrics)
	}
}
