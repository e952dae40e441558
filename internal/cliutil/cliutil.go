// Package cliutil holds the flag validation and cache wiring shared by
// cmd/cirstag and cmd/experiments, so the two binaries reject invalid
// invocations identically (exit 2 with a usage hint) instead of drifting.
package cliutil

import (
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"cirstag/internal/cache"
	"cirstag/internal/cirerr"
	"cirstag/internal/obs"
	"cirstag/internal/obs/profile"
)

// CacheDirEnv names the environment variable consulted when no -cache-dir
// flag is given. An empty variable leaves caching off.
const CacheDirEnv = "CIRSTAG_CACHE_DIR"

// NamedInt is an integer flag with its user-facing name, for validation
// messages.
type NamedInt struct {
	Name  string
	Value int
}

// Positive returns an error naming the first non-positive flag.
func Positive(flags ...NamedInt) error {
	for _, f := range flags {
		if f.Value <= 0 {
			return fmt.Errorf("%s must be positive, got %d", f.Name, f.Value)
		}
	}
	return nil
}

// NamedFloat is a float flag with its user-facing name, for validation
// messages.
type NamedFloat struct {
	Name  string
	Value float64
}

// InUnitInterval returns an error naming the first flag outside the open
// interval (0, 1). NaN is outside.
func InUnitInterval(flags ...NamedFloat) error {
	for _, f := range flags {
		if !(f.Value > 0 && f.Value < 1) {
			return fmt.Errorf("%s must be in (0,1), got %v", f.Name, f.Value)
		}
	}
	return nil
}

// ValidateApproxDMDFlags checks the approximate-DMD flag combination shared
// by the binaries. -dmd-eps only means anything with -approx-dmd, so setting
// it alone is a usage error; with -approx-dmd the value must be a valid
// relative-error target in (0,1). -approx-dmd with -no-cache is legal but
// loses sketch persistence — every run re-pays the q Laplacian solves of the
// sketch build — and returns a warning for the CLI to surface.
func ValidateApproxDMDFlags(approxDMD bool, dmdEps float64, dmdEpsSet, noCache bool) (warning string, err error) {
	if dmdEpsSet && !approxDMD {
		return "", fmt.Errorf("-dmd-eps requires -approx-dmd")
	}
	if approxDMD {
		if err := InUnitInterval(NamedFloat{Name: "-dmd-eps", Value: dmdEps}); err != nil {
			return "", err
		}
		if noCache {
			warning = "-approx-dmd with -no-cache: resistance sketches will not persist, every run re-pays the sketch build"
		}
	}
	return warning, nil
}

// ValidateSequenceFlags checks cirstag's -sequence flag combination: a
// sequence run re-scores the design after every scripted edit, so the
// single-result extras (-edges, -approx-dmd) have no step to attach to and
// are rejected rather than silently applied to only the final design.
func ValidateSequenceFlags(sequencePath string, edges, approxDMD bool) error {
	if sequencePath == "" {
		return nil
	}
	if edges {
		return fmt.Errorf("-sequence is mutually exclusive with -edges")
	}
	if approxDMD {
		return fmt.Errorf("-sequence is mutually exclusive with -approx-dmd")
	}
	return nil
}

// NamedFlag is a boolean "was this flag given" with its user-facing name.
type NamedFlag struct {
	Name string
	Set  bool
}

// MutuallyExclusive rejects invocations that set more than one of the given
// flags.
func MutuallyExclusive(flags ...NamedFlag) error {
	var set []string
	for _, f := range flags {
		if f.Set {
			set = append(set, f.Name)
		}
	}
	if len(set) > 1 {
		return fmt.Errorf("%s and %s are mutually exclusive", set[0], set[1])
	}
	return nil
}

// ExactlyOne requires precisely one of the given flags to be set.
func ExactlyOne(flags ...NamedFlag) error {
	if err := MutuallyExclusive(flags...); err != nil {
		return err
	}
	for _, f := range flags {
		if f.Set {
			return nil
		}
	}
	names := ""
	for i, f := range flags {
		if i > 0 {
			names += " or "
		}
		names += f.Name
	}
	return fmt.Errorf("need %s", names)
}

// ValidateCacheFlags rejects the contradictory combination of an explicit
// -cache-dir with -no-cache.
func ValidateCacheFlags(cacheDir string, noCache bool) error {
	return MutuallyExclusive(
		NamedFlag{Name: "-cache-dir", Set: cacheDir != ""},
		NamedFlag{Name: "-no-cache", Set: noCache},
	)
}

// OneOf rejects a string flag whose value is outside the allowed set.
func OneOf(name, value string, allowed ...string) error {
	for _, a := range allowed {
		if value == a {
			return nil
		}
	}
	opts := ""
	for i, a := range allowed {
		if i > 0 {
			opts += " or "
		}
		opts += a
	}
	return fmt.Errorf("%s must be %s, got %q", name, opts, value)
}

// ValidateServerFlags checks cmd/cirstagd's daemon flag combination. -addr
// must be a listenable host:port (":8080" and "127.0.0.1:0" are fine; a bare
// port or hostname is not). -max-inflight and -per-tenant must be positive,
// and -per-tenant must not exceed -max-inflight — a per-tenant budget larger
// than the whole admission bound is a configuration contradiction, not a
// generous limit. -drain-timeout must be positive: a zero drain window would
// turn every SIGTERM into an immediate abandon of in-flight jobs.
func ValidateServerFlags(addr string, maxInflight, perTenant int, drainTimeout time.Duration) error {
	if addr == "" {
		return fmt.Errorf("-addr must not be empty")
	}
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return fmt.Errorf("-addr must be host:port: %v", err)
	}
	if err := Positive(
		NamedInt{Name: "-max-inflight", Value: maxInflight},
		NamedInt{Name: "-per-tenant", Value: perTenant},
	); err != nil {
		return err
	}
	if perTenant > maxInflight {
		return fmt.Errorf("-per-tenant (%d) must not exceed -max-inflight (%d)", perTenant, maxInflight)
	}
	if drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be positive, got %v", drainTimeout)
	}
	return nil
}

// ValidateLoadFlags checks cmd/loadgen's flag combination before any traffic
// is generated: -addr must be a full base URL (the harness builds request
// URLs from it, so a bare host:port would silently produce relative-URL
// errors per job), the workload dimensions must be positive, -kind must name
// a known job mix, and the SLO bounds must be non-negative (0 disables an
// objective; a negative bound is a typo, not a vacuous pass).
func ValidateLoadFlags(addr, kind string, tenants, concurrency, jobs int, p95MaxMS, maxErrorPct float64) error {
	if addr == "" {
		return fmt.Errorf("-addr must not be empty")
	}
	if !strings.HasPrefix(addr, "http://") && !strings.HasPrefix(addr, "https://") {
		return fmt.Errorf("-addr must be a base URL (http://host:port), got %q", addr)
	}
	if err := Positive(
		NamedInt{Name: "-tenants", Value: tenants},
		NamedInt{Name: "-concurrency", Value: concurrency},
		NamedInt{Name: "-jobs", Value: jobs},
	); err != nil {
		return err
	}
	if err := OneOf("-kind", kind, "netlist", "sequence", "mix"); err != nil {
		return err
	}
	if p95MaxMS < 0 {
		return fmt.Errorf("-slo-p95-ms must be non-negative, got %v", p95MaxMS)
	}
	if maxErrorPct < 0 {
		return fmt.Errorf("-slo-error-pct must be non-negative, got %v", maxErrorPct)
	}
	return nil
}

// Fatal logs err prefixed with the tool name and exits with the process exit
// code its cirerr kind maps to (see cirerr.ExitCode): bad input is 2 like any
// other usage error, corrupt artifacts 3, solver non-convergence 4, degenerate
// geometry 5, and everything else — including wrapped internal panics — 1.
func Fatal(tool string, err error) {
	obs.Errorf("%s: %v", tool, err)
	os.Exit(cirerr.ExitCode(err))
}

// OpenCache resolves the artifact-cache store from the -cache-dir/-no-cache
// flags: -no-cache (or no directory from either the flag or $CIRSTAG_CACHE_DIR)
// disables caching by returning a nil store, which every cache consumer
// treats as "always miss, never persist".
func OpenCache(cacheDir string, noCache bool) (*cache.Store, error) {
	if noCache {
		return nil, nil
	}
	if cacheDir == "" {
		cacheDir = os.Getenv(CacheDirEnv)
	}
	if cacheDir == "" {
		return nil, nil
	}
	return cache.Open(cacheDir)
}

// StartProfile starts phase-scoped profile capture (the -profile-dir flag
// shared by cmd/cirstag and cmd/experiments). An empty dir disables capture
// and returns a nil Capturer, whose methods are all no-op safe, so callers
// thread it unconditionally.
func StartProfile(dir string) (*profile.Capturer, error) {
	if dir == "" {
		return nil, nil
	}
	return profile.Start(dir)
}
