package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cirstag/internal/cache"
	"cirstag/internal/circuit"
	"cirstag/internal/obs"
	"cirstag/internal/service"
)

const testSeed = 7

// stubRunner stands in for the pipeline: it lists node ids 0..top-1, fails
// the job (seed, top) named by fail, and makes the top-40 job of seed skew
// disagree with its cold job on the fourth line.
func stubRunner(fail [2]int64, skew int64) func(*circuit.Netlist, service.Params, *cache.Store, *obs.Span) (*service.RunResult, error) {
	return func(_ *circuit.Netlist, p service.Params, _ *cache.Store, _ *obs.Span) (*service.RunResult, error) {
		if p.Seed == fail[0] && int64(p.Top) == fail[1] {
			return nil, errors.New("injected failure")
		}
		var b bytes.Buffer
		b.WriteString("# most unstable nodes (stub)\n")
		for i := 0; i < p.Top; i++ {
			id := i
			if p.Seed == skew && p.Top == 40 && i == 3 {
				id = 999
			}
			fmt.Fprintf(&b, "%6d  %d\n", id, 100-i)
		}
		return &service.RunResult{Text: []byte(b.String())}, nil
	}
}

func startStub(t *testing.T, runner func(*circuit.Netlist, service.Params, *cache.Store, *obs.Span) (*service.RunResult, error)) string {
	t.Helper()
	obs.SetLevel(obs.LevelError)
	srv := service.NewServer(service.Config{Runner: runner})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Error(err)
		}
		ts.Close()
	})
	return ts.URL
}

// checkOrder asserts that each submitter's records are its designs in
// order, each as one cold job followed by its two revisits.
func checkOrder(t *testing.T, recs []jobRecord, submitters int) map[int]int {
	t.Helper()
	designs := map[int]int{}
	next := map[int]int{} // submitter -> index of its next job in the plan
	for _, r := range recs {
		i := next[r.submitter]
		next[r.submitter]++
		if wantDesign, wantTop := i/len(jobTops), jobTops[i%len(jobTops)]; r.design != wantDesign || r.top != wantTop || r.cold != (i%len(jobTops) == 0) {
			t.Errorf("submitter %d job %d: design %d top %d cold %v, want design %d top %d cold %v",
				r.submitter, i, r.design, r.top, r.cold, wantDesign, wantTop, i%len(jobTops) == 0)
		}
		if r.coalesced {
			t.Errorf("submitter %d design %d top %d coalesced", r.submitter, r.design, r.top)
		}
		designs[r.submitter] = r.design + 1
	}
	if len(next) != submitters {
		t.Errorf("%d submitters ran jobs, want %d", len(next), submitters)
	}
	return designs
}

func TestServiceLoadCountsFailedAndDisagreeingJobs(t *testing.T) {
	failed := designSeed(testSeed, 1, 0)
	skewed := designSeed(testSeed, 0, 0)
	url := startStub(t, stubRunner([2]int64{failed, 10}, skewed))

	recs := runLoad(context.Background(), &http.Client{}, loadConfig{baseURL: url, submitters: 2, designs: 1, seed: testSeed})
	if len(recs) != 2*len(jobTops) {
		t.Fatalf("got %d jobs, want %d", len(recs), 2*len(jobTops))
	}
	checkOrder(t, recs, 2)
	if agree := checkJobs(recs); agree != 0.5 {
		t.Errorf("warm agreement = %g, want 0.5 (one warm job failed, one disagrees)", agree)
	}
	var bad []string
	for _, r := range recs {
		if r.failed {
			bad = append(bad, fmt.Sprintf("s%d/top%d", r.submitter, r.top))
		}
	}
	if got := strings.Join(bad, ","); got != "s0/top40,s1/top10" {
		t.Errorf("failed jobs = %s, want s0/top40,s1/top10", got)
	}
}

func TestServiceLoadKeepsColdWarmOrderPerSubmitter(t *testing.T) {
	url := startStub(t, stubRunner([2]int64{0, -1}, 0))
	recs := runLoad(context.Background(), &http.Client{}, loadConfig{baseURL: url, submitters: 2, designs: 3, seed: testSeed})
	for s, n := range checkOrder(t, recs, 2) {
		if n != 3 {
			t.Errorf("submitter %d ran %d design(s), want 3", s, n)
		}
	}
	if agree := checkJobs(recs); agree != 1 {
		t.Errorf("warm agreement = %g, want 1", agree)
	}
	for _, r := range recs {
		if r.failed {
			t.Errorf("submitter %d design %d top %d failed: %s", r.submitter, r.design, r.top, r.err)
		}
		if r.e2eMS <= 0 {
			t.Errorf("submitter %d design %d top %d: e2e %g ms", r.submitter, r.design, r.top, r.e2eMS)
		}
	}
}
