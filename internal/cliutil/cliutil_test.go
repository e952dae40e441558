package cliutil

import (
	"os"
	"strings"
	"testing"
	"time"

	"cirstag/internal/obs"
)

// TestConflictTable drives every flag-combination rule that makes the CLIs
// exit 2, table-style: each case mirrors a real invocation of cmd/cirstag or
// cmd/experiments.
func TestConflictTable(t *testing.T) {
	cases := []struct {
		name    string
		err     error
		wantErr string // substring; empty means valid
	}{
		{
			name: "netlist and bench together",
			err: ExactlyOne(
				NamedFlag{Name: "-netlist", Set: true},
				NamedFlag{Name: "-bench", Set: true},
			),
			wantErr: "mutually exclusive",
		},
		{
			name: "neither netlist nor bench",
			err: ExactlyOne(
				NamedFlag{Name: "-netlist", Set: false},
				NamedFlag{Name: "-bench", Set: false},
			),
			wantErr: "need -netlist or -bench",
		},
		{
			name: "exactly one input source",
			err: ExactlyOne(
				NamedFlag{Name: "-netlist", Set: false},
				NamedFlag{Name: "-bench", Set: true},
			),
		},
		{
			name: "verbose and quiet together",
			err: MutuallyExclusive(
				NamedFlag{Name: "-v", Set: true},
				NamedFlag{Name: "-quiet", Set: true},
			),
			wantErr: "-v and -quiet are mutually exclusive",
		},
		{
			name: "verbose alone",
			err: MutuallyExclusive(
				NamedFlag{Name: "-v", Set: true},
				NamedFlag{Name: "-quiet", Set: false},
			),
		},
		{
			name:    "cache dir with no-cache",
			err:     ValidateCacheFlags("/tmp/c", true),
			wantErr: "-cache-dir and -no-cache are mutually exclusive",
		},
		{
			name: "cache dir alone",
			err:  ValidateCacheFlags("/tmp/c", false),
		},
		{
			name: "no-cache alone",
			err:  ValidateCacheFlags("", true),
		},
		{
			name:    "non-positive top",
			err:     Positive(NamedInt{Name: "-top", Value: 0}),
			wantErr: "-top must be positive",
		},
		{
			name:    "negative epochs",
			err:     Positive(NamedInt{Name: "-top", Value: 20}, NamedInt{Name: "-epochs", Value: -1}),
			wantErr: "-epochs must be positive",
		},
		{
			name: "all positive",
			err:  Positive(NamedInt{Name: "-top", Value: 20}, NamedInt{Name: "-epochs", Value: 300}),
		},
		{
			name:    "unknown log format",
			err:     OneOf("-log-format", "yaml", "text", "json"),
			wantErr: `-log-format must be text or json, got "yaml"`,
		},
		{
			name: "text log format",
			err:  OneOf("-log-format", "text", "text", "json"),
		},
		{
			name: "json log format",
			err:  OneOf("-log-format", "json", "text", "json"),
		},
		{
			name:    "dmd-eps without approx-dmd",
			err:     second(ValidateApproxDMDFlags(false, 0.3, true, false)),
			wantErr: "-dmd-eps requires -approx-dmd",
		},
		{
			name:    "dmd-eps of zero",
			err:     second(ValidateApproxDMDFlags(true, 0, true, false)),
			wantErr: "-dmd-eps must be in (0,1)",
		},
		{
			name:    "dmd-eps of one",
			err:     second(ValidateApproxDMDFlags(true, 1, true, false)),
			wantErr: "-dmd-eps must be in (0,1)",
		},
		{
			name:    "negative dmd-eps",
			err:     second(ValidateApproxDMDFlags(true, -0.5, true, false)),
			wantErr: "-dmd-eps must be in (0,1)",
		},
		{
			name: "approx-dmd with default eps",
			err:  second(ValidateApproxDMDFlags(true, 0.5, false, false)),
		},
		{
			name: "approx-dmd with explicit valid eps",
			err:  second(ValidateApproxDMDFlags(true, 0.25, true, false)),
		},
		{
			name:    "server empty addr",
			err:     ValidateServerFlags("", 64, 4, time.Minute),
			wantErr: "-addr must not be empty",
		},
		{
			name:    "server bare port addr",
			err:     ValidateServerFlags("8080", 64, 4, time.Minute),
			wantErr: "-addr must be host:port",
		},
		{
			name: "server wildcard addr",
			err:  ValidateServerFlags(":8080", 64, 4, time.Minute),
		},
		{
			name: "server ephemeral port addr",
			err:  ValidateServerFlags("127.0.0.1:0", 64, 4, time.Minute),
		},
		{
			name:    "server non-positive max-inflight",
			err:     ValidateServerFlags(":8080", 0, 4, time.Minute),
			wantErr: "-max-inflight must be positive",
		},
		{
			name:    "server non-positive per-tenant",
			err:     ValidateServerFlags(":8080", 64, -1, time.Minute),
			wantErr: "-per-tenant must be positive",
		},
		{
			name:    "server per-tenant above max-inflight",
			err:     ValidateServerFlags(":8080", 4, 8, time.Minute),
			wantErr: "-per-tenant (8) must not exceed -max-inflight (4)",
		},
		{
			name:    "server zero drain timeout",
			err:     ValidateServerFlags(":8080", 64, 4, 0),
			wantErr: "-drain-timeout must be positive",
		},
		{
			name: "server defaults valid",
			err:  ValidateServerFlags(":8080", 64, 4, 30*time.Second),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.wantErr == "" {
				if tc.err != nil {
					t.Fatalf("unexpected error: %v", tc.err)
				}
				return
			}
			if tc.err == nil || !strings.Contains(tc.err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want substring %q", tc.err, tc.wantErr)
			}
		})
	}
}

// second drops the warning from ValidateApproxDMDFlags so the conflict table
// stays uniform.
func second(_ string, err error) error { return err }

// TestValidateApproxDMDFlagsWarning: -approx-dmd with -no-cache is legal but
// must warn that sketches will not persist across runs.
func TestValidateApproxDMDFlagsWarning(t *testing.T) {
	warning, err := ValidateApproxDMDFlags(true, 0.5, false, true)
	if err != nil {
		t.Fatalf("legal combination rejected: %v", err)
	}
	if !strings.Contains(warning, "-no-cache") || !strings.Contains(warning, "sketch") {
		t.Fatalf("warning = %q, want mention of -no-cache and sketches", warning)
	}
	if w, err := ValidateApproxDMDFlags(false, 0.5, false, true); err != nil || w != "" {
		t.Fatalf("no -approx-dmd: warning=%q err=%v, want silence", w, err)
	}
}

func TestOpenCache(t *testing.T) {
	t.Cleanup(func() { obs.SetCacheReporter(nil) })

	if s, err := OpenCache("", true); err != nil || s != nil {
		t.Fatalf("-no-cache: store=%v err=%v", s, err)
	}
	t.Setenv(CacheDirEnv, "")
	if s, err := OpenCache("", false); err != nil || s != nil {
		t.Fatalf("no dir anywhere: store=%v err=%v", s, err)
	}

	dir := t.TempDir() + "/explicit"
	s, err := OpenCache(dir, false)
	if err != nil || s == nil || s.Dir() != dir {
		t.Fatalf("explicit dir: store=%v err=%v", s, err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("cache dir not created: %v", err)
	}

	envDir := t.TempDir() + "/fromenv"
	t.Setenv(CacheDirEnv, envDir)
	s, err = OpenCache("", false)
	if err != nil || s == nil || s.Dir() != envDir {
		t.Fatalf("env dir: store=%v err=%v", s, err)
	}
	// -no-cache wins over the environment.
	if s, err := OpenCache("", true); err != nil || s != nil {
		t.Fatalf("-no-cache with env set: store=%v err=%v", s, err)
	}
}

func TestValidateLoadFlags(t *testing.T) {
	ok := func(addr, kind string, tenants, conc, jobs int, p95, errPct float64, want bool) {
		t.Helper()
		err := ValidateLoadFlags(addr, kind, tenants, conc, jobs, p95, errPct)
		if (err == nil) != want {
			t.Errorf("ValidateLoadFlags(%q, %q, %d, %d, %d, %v, %v) = %v, want ok=%v",
				addr, kind, tenants, conc, jobs, p95, errPct, err, want)
		}
	}
	ok("http://127.0.0.1:8080", "netlist", 2, 2, 2, 0, 0, true)
	ok("https://lab:8443", "mix", 1, 1, 1, 5000, 1, true)
	ok("", "netlist", 1, 1, 1, 0, 0, false)
	ok("127.0.0.1:8080", "netlist", 1, 1, 1, 0, 0, false) // bare host:port
	ok("http://x", "warmup", 1, 1, 1, 0, 0, false)        // unknown kind
	ok("http://x", "netlist", 0, 1, 1, 0, 0, false)
	ok("http://x", "netlist", 1, -1, 1, 0, 0, false)
	ok("http://x", "sequence", 1, 1, 0, 0, 0, false)
	ok("http://x", "netlist", 1, 1, 1, -1, 0, false)
	ok("http://x", "netlist", 1, 1, 1, 0, -0.5, false)
}
