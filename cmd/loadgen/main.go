// Command loadgen drives a running cirstagd with a multi-tenant job load and
// gates on service-level objectives: N tenants × M concurrent submitters
// each run a stream of jobs, latency is measured from the first POST attempt
// to the arrival of the job's terminal event on the server's SSE feed
// (backpressure backoff included), and the run is scored with the same
// burn-rate math the server applies to its own SLOs.
//
// Usage:
//
//	loadgen -addr http://127.0.0.1:8344 -tenants 4 -concurrency 2 -jobs 3
//	loadgen -addr $ADDR -kind mix -slo-p95-ms 30000 -out verdict.json
//
// The verdict is a cirstag.load/v1 JSON document (stdout, or -out). With
// -history-dir the run also lands in the shared run-history ledger (tool
// "loadgen"), so cmd/runcmp diffs load runs like any other profile.
//
// Exit codes: 0 when every objective held, 7 when an SLO was breached, 1
// when the harness could not measure anything (no job completed, unreachable
// server), 2 for flag misuse.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cirstag/internal/cirerr"
	"cirstag/internal/cliutil"
	"cirstag/internal/load"
	"cirstag/internal/obs"
	"cirstag/internal/obs/history"
)

func main() {
	var (
		addr        = flag.String("addr", "http://127.0.0.1:8344", "cirstagd base URL")
		tenants     = flag.Int("tenants", 2, "number of distinct submitting tenants")
		concurrency = flag.Int("concurrency", 2, "concurrent submitters per tenant")
		jobs        = flag.Int("jobs", 2, "jobs per submitter (sequential)")
		kind        = flag.String("kind", "netlist", "job mix: netlist, sequence, or mix")
		bench       = flag.String("bench", "ss_pcm", "synthetic benchmark design to submit")
		epochs      = flag.Int("epochs", 40, "GNN training epochs per job (small keeps load about queueing)")
		seqSteps    = flag.Int("seq-steps", 3, "script length for sequence-kind jobs")
		seedBase    = flag.Int64("seed-base", 1, "base of the per-job seed sequence (distinct seeds defeat coalescing)")
		jobTimeout  = flag.Duration("job-timeout", 2*time.Minute, "max wait for one job's terminal event")
		sloP95MS    = flag.Float64("slo-p95-ms", 0, "latency objective: client e2e p95 bound in ms (0 disables)")
		sloErrorPct = flag.Float64("slo-error-pct", 0, "error-rate objective: max failed-job percentage (0 disables)")
		out         = flag.String("out", "", "write the cirstag.load/v1 verdict to this file (default stdout)")
		historyDir  = flag.String("history-dir", "", "append the verdict's latency profile to DIR/ledger.jsonl")
		quiet       = flag.Bool("quiet", false, "suppress the progress summary on stderr")
	)
	flag.Parse()

	if err := cliutil.ValidateLoadFlags(*addr, *kind, *tenants, *concurrency, *jobs, *sloP95MS, *sloErrorPct); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v (see -h)\n", err)
		os.Exit(cirerr.ExitBadInput)
	}

	cfg := load.Config{
		Addr:        *addr,
		Tenants:     *tenants,
		Concurrency: *concurrency,
		Jobs:        *jobs,
		Kind:        *kind,
		Bench:       *bench,
		Epochs:      *epochs,
		SeqSteps:    *seqSteps,
		SeedBase:    *seedBase,
		P95MaxMS:    *sloP95MS,
		MaxErrorPct: *sloErrorPct,
		JobTimeout:  *jobTimeout,
	}

	// Ctrl-C cancels in-flight waits; the harness then scores whatever
	// completed, so an interrupted run still yields a (partial) verdict.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	verdict, err := load.Run(ctx, cfg)
	if err != nil {
		cliutil.Fatal("loadgen", err)
	}

	b, err := json.MarshalIndent(verdict, "", "  ")
	if err != nil {
		cliutil.Fatal("loadgen", err)
	}
	b = append(b, '\n')
	if *out == "" {
		os.Stdout.Write(b) //nolint:errcheck // stdout write failure has no recovery
	} else if err := os.WriteFile(*out, b, 0o644); err != nil {
		cliutil.Fatal("loadgen", err)
	}

	if *historyDir != "" {
		if err := history.Append(*historyDir, verdict.HistoryEntry()); err != nil {
			cliutil.Fatal("loadgen", err)
		}
	}

	if !*quiet {
		fmt.Fprintf(os.Stderr, "loadgen: %d submitted, %d completed, %d failed (%d timed out), %d coalesced, %d retries after 429 (%.0fms backoff)\n",
			verdict.Jobs.Submitted, verdict.Jobs.Completed, verdict.Jobs.Failed, verdict.Jobs.TimedOut,
			verdict.Jobs.Coalesced, verdict.Jobs.Retries429, verdict.BackoffMS)
		fmt.Fprintf(os.Stderr, "loadgen: e2e p50/p95/p99 %.0f/%.0f/%.0f ms, queue wait p50 %.0f ms\n",
			verdict.E2EMS.P50, verdict.E2EMS.P95, verdict.E2EMS.P99, verdict.QueueWaitMS.P50)
		for _, st := range verdict.SLO {
			state := "ok"
			if !st.OK {
				state = "BREACHED"
			}
			fmt.Fprintf(os.Stderr, "loadgen: slo %s: burn %.2f (%s)\n", st.Name, st.BurnRate, state)
		}
	}

	if verdict.Jobs.Completed == 0 {
		obs.Errorf("loadgen: no job completed; nothing measured")
		os.Exit(cirerr.ExitInternal)
	}
	if verdict.Breached {
		os.Exit(cirerr.ExitSLOBreach)
	}
}
