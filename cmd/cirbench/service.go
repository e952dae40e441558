package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"cirstag/internal/cache"
	"cirstag/internal/obs"
	"cirstag/internal/obs/event"
	"cirstag/internal/parallel"
	"cirstag/internal/service"
)

const (
	svcBench      = "ss_pcm"
	svcEpochs     = 100
	svcSubmitters = 2 // one per tenant, and no more than the host's 2 CPUs
	// agreeLines is how many ranking lines a warm job must share with its
	// design's cold job: the cache contract says they are identical.
	agreeLines = 10
	jobTimeout = 2 * time.Minute
	// svcDesignsPerSecond sizes the load from -seconds: a submitter gets
	// through one design's three jobs in about 1.25 s on a 2-core host. The
	// load is a fixed number of jobs rather than a time limit, so that every
	// run does the same work and keeps the same number of finished jobs in
	// the server's memory.
	svcDesignsPerSecond = 0.8
)

// jobTops is the closed loop's per-design plan: one cold job, then two
// revisits whose different top changes the job key, so they reuse the cold
// job's cached artifacts without coalescing onto it.
var jobTops = []int{20, 10, 40}

// jobRecord is one job as the client saw it.
type jobRecord struct {
	submitter, design int
	cold              bool
	top               int
	seed              int64
	id                string
	coalesced, failed bool
	err               string
	e2eMS             float64 // POST to terminal event, as the client waited
	spanMS            float64 // the harness span around the same interval
	queueWaitMS       float64 // from the terminal event
	status            service.Status
}

// loadConfig drives runLoad.
type loadConfig struct {
	baseURL    string
	submitters int
	designs    int // per submitter
	seed       int64
	trace      *tracer // nil when untraced
}

// designSeed gives each (submitter, design) slot its own ss_pcm variant, so
// every cold job is cold.
func designSeed(seed int64, submitter, design int) int64 {
	return parallel.SplitSeed(seed, uint64(submitter)<<32|uint64(design))
}

// runLoad is the closed loop: each submitter, as its own tenant, runs the
// jobTops plan on one design after another, waiting for every job's terminal
// event before submitting the next, so it holds one connection at a time.
// Records come back in submission order per submitter.
func runLoad(ctx context.Context, client *http.Client, cfg loadConfig) []jobRecord {
	per := make([][]jobRecord, cfg.submitters)
	var wg sync.WaitGroup
	for s := 0; s < cfg.submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for d := 0; d < cfg.designs && ctx.Err() == nil; d++ {
				seed := designSeed(cfg.seed, s, d)
				for k, top := range jobTops {
					rec := jobRecord{submitter: s, design: d, cold: k == 0, top: top, seed: seed}
					per[s] = append(per[s], runJob(ctx, client, cfg.baseURL, cfg.trace, fmt.Sprintf("tenant-%d", s), rec))
				}
			}
		}(s)
	}
	wg.Wait()
	var all []jobRecord
	for _, recs := range per {
		all = append(all, recs...)
	}
	return all
}

// runJob submits one job, follows its event stream to the terminal event,
// and then fetches its status (outside the timed interval).
func runJob(ctx context.Context, client *http.Client, baseURL string, t *tracer, tenant string, rec jobRecord) jobRecord {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	jobSpan := t.begin(fmt.Sprintf("job.s%d.d%d.top%d", rec.submitter, rec.design, rec.top), 0)
	start := time.Now()
	err := func() error {
		body, err := json.Marshal(service.Request{Tenant: tenant, Params: service.Params{
			Bench: svcBench, Seed: rec.seed, Epochs: svcEpochs, Top: rec.top,
		}})
		if err != nil {
			return err
		}
		var ack service.SubmitResponse
		t.span("POST /v1/jobs", jobSpan, func() {
			err = doJSON(ctx, client, http.MethodPost, baseURL+"/v1/jobs", body, http.StatusAccepted, &ack)
		})
		if err != nil {
			return err
		}
		rec.id, rec.coalesced = ack.ID, ack.Coalesced
		var term event.Event
		t.span("GET /v1/jobs/{id}/events", jobSpan, func() { term, err = awaitTerminal(ctx, client, baseURL, ack.ID) })
		if err != nil {
			return err
		}
		rec.e2eMS = sinceMS(start, time.Now())
		rec.queueWaitMS = term.QueueWaitMS
		if term.Type != event.Done {
			return fmt.Errorf("job %s ended %s: %s", ack.ID, term.Type, term.Error)
		}
		return nil
	}()
	rec.spanMS = t.end(jobSpan)
	if err != nil {
		rec.failed, rec.err = true, err.Error()
		if rec.e2eMS == 0 {
			rec.e2eMS = sinceMS(start, time.Now())
		}
		return rec
	}
	if err := doJSON(ctx, client, http.MethodGet, baseURL+"/v1/jobs/"+rec.id, nil, http.StatusOK, &rec.status); err != nil {
		rec.failed, rec.err = true, err.Error()
	}
	return rec
}

// doJSON makes one request and decodes a JSON response with the wanted
// status code into v.
func doJSON(ctx context.Context, client *http.Client, method, url string, body []byte, want int, v any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, v)
}

// awaitTerminal follows one job's SSE stream until its done or failed event.
func awaitTerminal(ctx context.Context, client *http.Client, baseURL, id string) (event.Event, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return event.Event{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return event.Event{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return event.Event{}, fmt.Errorf("GET events of %s: status %d", id, resp.StatusCode)
	}
	sc := event.NewScanner(resp.Body)
	for {
		ev, ok, err := sc.Next()
		if err != nil {
			return event.Event{}, err
		}
		if !ok {
			return event.Event{}, fmt.Errorf("event stream of %s ended without a terminal event", id)
		}
		if ev.JobID == id && (ev.Type == event.Done || ev.Type == event.Failed) {
			return ev, nil
		}
	}
}

// checkJobs fails every job that broke the service's contract — a job that
// coalesced although its key is unique, or a warm job whose first agreeLines
// ranking lines differ from its design's cold job — and returns the share of
// warm jobs that agree with their cold job.
func checkJobs(recs []jobRecord) float64 {
	type slot struct{ submitter, design int }
	coldRows := map[slot][]string{}
	for _, r := range recs {
		if r.cold && !r.failed {
			coldRows[slot{r.submitter, r.design}] = rankingRows(r.status.Result, agreeLines)
		}
	}
	warm, agree := 0, 0
	for i := range recs {
		r := &recs[i]
		if r.coalesced && !r.failed {
			r.failed, r.err = true, "coalesced onto another job"
		}
		if r.cold {
			continue
		}
		warm++
		cold, ok := coldRows[slot{r.submitter, r.design}]
		if !r.failed && ok && len(cold) > 0 && slices.Equal(cold, rankingRows(r.status.Result, agreeLines)) {
			agree++
			continue
		}
		if !r.failed {
			r.failed, r.err = true, "ranking differs from the cold job's"
		}
	}
	if warm == 0 {
		return 0
	}
	return float64(agree) / float64(warm)
}

// rankingRows returns the first n rows of a ranked listing, without its
// comment header.
func rankingRows(listing string, n int) []string {
	var rows []string
	for _, line := range strings.Split(listing, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if rows = append(rows, line); len(rows) == n {
			break
		}
	}
	return rows
}

// server is an in-process cirstagd: a service.Server with cirstagd's
// defaults and a fresh artifact cache, served over loopback HTTP.
type server struct {
	srv    *service.Server
	store  *cache.Store
	http   *http.Server
	url    string
	dir    string
	served chan error
}

func startServer() (*server, error) {
	dir, err := os.MkdirTemp("", "cirbench-cache-")
	if err != nil {
		return nil, err
	}
	store, err := cache.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := service.NewServer(service.Config{Store: store})
	s := &server{srv: srv, store: store, http: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), dir: dir, served: make(chan error, 1)}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// close drains the server, stops the listener, waits for it to return, and
// removes the cache.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	err := s.srv.Drain(ctx)
	if herr := s.http.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-s.served; err == nil && serr != http.ErrServerClosed {
		err = serr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// runService starts the server, warms it with one job, and drives the
// closed loop against it.
func runService(cfg runConfig) (*outcome, error) {
	// cirstagd always records spans and resource deltas: per-job reports are
	// part of its API.
	obs.Enable()
	obs.EnableResources()
	defer obs.Disable()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	ctx := context.Background()

	srv, setupTimes, err := repeatSetup(func() (*server, error) {
		s, err := startServer()
		if err != nil {
			return nil, err
		}
		// One job before the clock starts, so the first measured job does
		// not pay the process's first-use costs, which a long-running server
		// pays once. Its design is a slot no submitter uses.
		w := runJob(ctx, client, s.url, nil, "warmup", jobRecord{cold: true, top: jobTops[0], seed: designSeed(cfg.seed, svcSubmitters, 0)})
		if w.failed {
			_ = s.close() // the warm-up failure is the error to report
			return nil, fmt.Errorf("warm-up job: %s", w.err)
		}
		return s, nil
	}, func(s *server) {
		if err := s.close(); err != nil {
			fmt.Fprintf(os.Stderr, "cirbench: closing set-up server: %v\n", err)
		}
	})
	if err != nil {
		return nil, err
	}

	var counts counterTotals
	counts.begin()
	cacheBefore := srv.store.Snapshot()
	start := time.Now()
	designs := max(1, int(math.Round(svcDesignsPerSecond*cfg.budget.Seconds())))
	recs := runLoad(ctx, client, loadConfig{baseURL: srv.url, submitters: svcSubmitters, designs: designs, seed: cfg.seed, trace: cfg.trace})
	wall := time.Since(start).Seconds()
	counts.end()
	cacheAfter := srv.store.Snapshot()
	if err := srv.close(); err != nil {
		return nil, fmt.Errorf("closing server: %w", err)
	}

	agreement := checkJobs(recs)
	out := &outcome{attempted: len(recs)}
	var e2e, cold, warm []float64
	for _, r := range recs {
		if r.failed {
			out.failed++
			fmt.Fprintf(os.Stderr, "cirbench: job %s (submitter %d, design %d, top %d): %s\n", r.id, r.submitter, r.design, r.top, r.err)
		}
		e2e = append(e2e, r.e2eMS)
		if r.cold {
			cold = append(cold, r.e2eMS)
		} else {
			warm = append(warm, r.e2eMS)
		}
	}

	if cfg.trace != nil {
		traceService(recs, counts, cacheBefore, cacheAfter, out)
		if len(cold) > 0 && len(warm) > 0 {
			out.set("service.warm_speedup", median(cold)/median(warm), len(recs))
		}
		return out, nil
	}
	out.note("jobs_per_s", float64(len(recs))/wall, "1/s", len(recs))
	out.note("cold_job_ms_p50", median(cold), "ms", len(cold))
	out.note("warm_job_ms_p50", median(warm), "ms", len(warm))
	for _, q := range []float64{0.9, 0.8} {
		if tailOK(len(e2e), q) {
			out.note(fmt.Sprintf("e2e_ms_p%.0f", 100*q), quantile(e2e, q), "ms", len(e2e))
			break
		}
	}
	out.set("setup_s", median(setupTimes), len(setupTimes))
	out.set("op_ms", mean(e2e), len(e2e))
	out.set("quality", agreement, len(recs)-len(cold))
	out.set("max_rss_mb", maxRSSMB(), 1)
	return out, nil
}

// traceService derives the per-layer metrics from what the server reports
// per job: the phase times of its span tree (cold jobs run the whole
// pipeline), its queue wait and run interval, plus the cache's and the obs
// counters' activity over the load.
func traceService(recs []jobRecord, counts counterTotals, before, after cache.Stats, out *outcome) {
	var layers struct {
		n                                                  int
		embed, knn, gx, gy, eig, covered, core, train, run float64
	}
	var e2e, queue, run, spans float64
	for _, r := range recs {
		if r.failed {
			continue
		}
		e2e += r.e2eMS
		queue += r.queueWaitMS
		spans += r.spanMS
		jobRun := runMS(r.status)
		run += jobRun
		if !r.cold {
			continue
		}
		ph := r.status.PhasesMS
		layers.n++
		layers.run += jobRun
		layers.embed += ph["embedding"]
		layers.knn += ph["knn"]
		layers.gx += ph["input_manifold"] - ph["embedding"]
		layers.gy += ph["output_manifold"]
		layers.eig += ph["eigensolve"]
		layers.covered += math.Max(ph["input_manifold"], ph["output_manifold"]) + ph["eigensolve"]
		layers.core += ph["core.run"]
		layers.train += ph["train_gnn"]
	}
	jobs := len(recs)
	if n := float64(layers.n); n > 0 {
		out.set("embed.spectral_ms", layers.embed/n, layers.n)
		out.set("knn.build_ms", layers.knn/n, layers.n)
		out.set("pgm.gx_ms", layers.gx/n, layers.n)
		out.set("pgm.gy_ms", layers.gy/n, layers.n)
		out.set("eig.generalized_ms", layers.eig/n, layers.n)
		out.set("core.other_ms", (layers.core-layers.covered)/n, layers.n)
		out.set("analyze.coverage", layers.covered/layers.core, layers.n)
		out.set("service.train_pct", 100*layers.train/layers.run, layers.n)
	}
	if e2e > 0 {
		out.set("service.queue_wait_pct", 100*queue/e2e, jobs)
		out.set("service.overhead_pct", 100*(e2e-queue-run)/e2e, jobs)
		out.set("trace.overhead_pct", 100*(spans-e2e)/e2e, jobs)
	}
	counts.report(out, jobs)
	hits, misses := float64(after.Hits-before.Hits), float64(after.Misses-before.Misses)
	out.set("cache.hits", hits/float64(jobs), jobs)
	out.set("cache.misses", misses/float64(jobs), jobs)
	if hits+misses > 0 {
		out.set("cache.hit_ratio", hits/(hits+misses), jobs)
	}
	out.set("cache.bytes_read", float64(after.BytesRead-before.BytesRead)/float64(jobs), jobs)
	out.set("cache.bytes_written", float64(after.BytesWritten-before.BytesWritten)/float64(jobs), jobs)
}

// runMS is how long the server ran a job: from dispatch to finish.
func runMS(st service.Status) float64 {
	started, err := time.Parse(time.RFC3339Nano, st.Started)
	if err != nil {
		return 0
	}
	finished, err := time.Parse(time.RFC3339Nano, st.Finished)
	if err != nil {
		return 0
	}
	return sinceMS(started, finished)
}
