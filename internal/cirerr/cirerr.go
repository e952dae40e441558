// Package cirerr defines the typed-error vocabulary of the CirSTAG pipeline
// and the process exit codes derived from it. Every public entry point
// (core.Run, core.Baseline.RunIncremental, timing.TrainAndStore, cache.Open,
// circuit.Read, both CLIs) reports failures as an *Error carrying a pipeline
// stage and one of a closed set of kind sentinels, so callers can route on
// failure class with errors.Is without parsing message strings.
//
// # Contract
//
// The pipeline distinguishes two failure domains:
//
//   - Caller mistakes and environmental failures surface as returned errors
//     tagged with a Kind: malformed input (ErrBadInput), an artifact that
//     failed its integrity check (ErrCorruptArtifact), an iteration that
//     exhausted its budget (ErrNoConverge), or geometry so degenerate that
//     scores would be NaN/±Inf (ErrDegenerateGeometry).
//   - Internal invariant violations keep panicking at the site (a panic here
//     is a bug, and the stack is the diagnostic), but the public boundaries
//     recover and wrap them as ErrInternal via RecoverTo, so no input — not
//     even one that trips a bug — can crash a process that embeds the
//     library.
//
// ExitCode maps the kinds onto stable CLI exit codes (documented in the
// README troubleshooting section); both binaries use it so scripts can route
// on $?.
package cirerr

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// Kind sentinels. Compare with errors.Is; they are never returned bare.
var (
	// ErrBadInput tags malformed or out-of-contract caller input: an
	// unparseable netlist, mismatched matrix shapes, non-finite embedding
	// entries, an unusable cache directory, invalid flag combinations.
	ErrBadInput = errors.New("bad input")
	// ErrNoConverge tags an iterative solver or training loop that exhausted
	// its budget without meeting tolerance and had no graceful fallback.
	ErrNoConverge = errors.New("no convergence")
	// ErrCorruptArtifact tags a persisted artifact (cache frame, model
	// snapshot) that failed its integrity or schema check.
	ErrCorruptArtifact = errors.New("corrupt artifact")
	// ErrDegenerateGeometry tags inputs whose manifold geometry collapses —
	// coincident embeddings, zero-variance outputs, rank-deficient
	// Laplacians — far enough that stability scores would be NaN/±Inf.
	ErrDegenerateGeometry = errors.New("degenerate geometry")
	// ErrInternal tags a recovered invariant panic: a bug surfaced at a
	// public boundary instead of crashing the process.
	ErrInternal = errors.New("internal error")
)

// Error is a stage- and kind-tagged pipeline error.
type Error struct {
	// Stage names the pipeline stage that failed ("core.run", "netlist",
	// "cache", "timing", ...). Purely diagnostic.
	Stage string
	// Kind is one of the package sentinels; errors.Is(e, kind) matches it.
	Kind error
	// Err is the underlying cause; may be nil when the Error is the root.
	Err error
	// msg is the formatted description when constructed via New.
	msg string
}

// Error formats as "stage: kind: detail".
func (e *Error) Error() string {
	detail := e.msg
	if detail == "" && e.Err != nil {
		detail = e.Err.Error()
	}
	if detail == "" {
		return fmt.Sprintf("%s: %v", e.Stage, e.Kind)
	}
	return fmt.Sprintf("%s: %v: %s", e.Stage, e.Kind, detail)
}

// Unwrap exposes both the kind sentinel and the underlying cause to
// errors.Is/As.
func (e *Error) Unwrap() []error {
	out := make([]error, 0, 2)
	if e.Kind != nil {
		out = append(out, e.Kind)
	}
	if e.Err != nil {
		out = append(out, e.Err)
	}
	return out
}

// New builds a root Error with a formatted description.
func New(stage string, kind error, format string, args ...any) *Error {
	return &Error{Stage: stage, Kind: kind, msg: fmt.Sprintf(format, args...)}
}

// Wrap tags an existing error with a stage and kind. A nil err returns nil,
// so call sites can wrap unconditionally. If err is already an *Error it is
// returned unchanged — the innermost stage is the most precise one.
func Wrap(stage string, kind error, err error) error {
	if err == nil {
		return nil
	}
	var ce *Error
	if errors.As(err, &ce) {
		return err
	}
	return &Error{Stage: stage, Kind: kind, Err: err}
}

// KindOf returns the kind sentinel carried by err, or nil when err carries
// none of them.
func KindOf(err error) error {
	for _, k := range []error{ErrBadInput, ErrNoConverge, ErrCorruptArtifact, ErrDegenerateGeometry, ErrInternal} {
		if errors.Is(err, k) {
			return k
		}
	}
	return nil
}

// CLI exit codes. 0 is success and 1 an untagged/internal failure, following
// convention; 2 matches flag.ExitOnError's usage-error code so every "you
// invoked this wrong" path exits identically.
const (
	ExitOK              = 0
	ExitInternal        = 1
	ExitBadInput        = 2
	ExitCorruptArtifact = 3
	ExitNoConverge      = 4
	ExitDegenerate      = 5
	// Code 6 is retired and must not be reused: scripts written against
	// older releases read it as a latency-budget breach.

	// ExitSLOBreach is not an error kind: the load run itself completed, but
	// the measured latencies or error rate burned past a configured
	// service-level objective (internal/load). Scripts gate on it without
	// conflating it with pipeline failures.
	ExitSLOBreach = 7
)

// ExitCode maps an error onto the CLI exit code for its kind.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case errors.Is(err, ErrBadInput):
		return ExitBadInput
	case errors.Is(err, ErrCorruptArtifact):
		return ExitCorruptArtifact
	case errors.Is(err, ErrNoConverge):
		return ExitNoConverge
	case errors.Is(err, ErrDegenerateGeometry):
		return ExitDegenerate
	default:
		return ExitInternal
	}
}

// RecoverTo is the panic boundary of the public entry points: deferred at the
// top of core.Run and friends, it converts an in-flight panic into an
// ErrInternal-tagged *Error stored in *errp (keeping the panic message and
// stack), and leaves *errp alone when no panic is active. Invariant panics
// deeper in the library stay panics — this is the single place they become
// errors.
//
// A panic whose value already carries an *Error passes through with its stage
// and kind intact: deep library code with no error return path (e.g. an
// eigensolver whose Krylov basis collapsed) can throw a typed error and have
// the boundary report it as what it is rather than as an internal bug.
func RecoverTo(errp *error, stage string) {
	r := recover()
	if r == nil {
		return
	}
	if err, ok := r.(error); ok {
		var ce *Error
		if errors.As(err, &ce) {
			*errp = err
			return
		}
		*errp = &Error{Stage: stage, Kind: ErrInternal, Err: err,
			msg: fmt.Sprintf("recovered panic: %v\n%s", err, debug.Stack())}
		return
	}
	*errp = New(stage, ErrInternal, "recovered panic: %v\n%s", r, debug.Stack())
}
