// Package profile implements phase-scoped profile capture for CirSTAG runs
// (the -profile-dir flag of cmd/cirstag and cmd/experiments).
//
// One capture session owns a per-run directory <dir>/<run_id>/ holding:
//
//   - run.cpu.pb.gz — the CPU profile of the whole run. Go supports a single
//     concurrent CPU profile per process and pipeline phases overlap (the
//     G_X/G_Y manifold builds run in parallel), so CPU is captured per run
//     and attributed to phases offline via pprof's time axis plus the span
//     start_ms/duration_ms values in the run report.
//   - <phase>.heap.pb.gz — a heap profile snapshot taken at each top-level
//     phase boundary (span depth <= 1), after a forced GC so the profile
//     reflects live objects, not collection lag. Diffing two snapshots with
//     `go tool pprof -base` attributes allocation growth to the phase
//     between them.
//   - manifest.json (schema cirstag.profile/v1) — run identity (run_id,
//     input_hash, cold), the environment fingerprint, and the SHA-256 of
//     every captured profile. The content hashes plus input_hash are what
//     let tooling match a warm-cache run's profiles against a cold run of
//     the same input without trusting file timestamps.
//
// The session hooks span boundaries through obs.AddSpanObserver, so capture
// needs no cooperation from pipeline code: any span machinery already in
// place triggers snapshots.
package profile

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"

	"cirstag/internal/cirerr"
	"cirstag/internal/obs"
	"cirstag/internal/obs/resource"
)

// ManifestSchemaVersion identifies the manifest.json layout.
const ManifestSchemaVersion = "cirstag.profile/v1"

// CPUProfileFile is the name of the per-run CPU profile inside the run
// directory.
const CPUProfileFile = "run.cpu.pb.gz"

// ManifestFile is the name of the capture manifest inside the run directory.
const ManifestFile = "manifest.json"

// maxHeapSnapshots bounds the number of heap snapshots per run: a pipeline
// stuck in a span loop must not fill the disk with profiles.
const maxHeapSnapshots = 64

// maxSnapshotDepth is the deepest span level that triggers a heap snapshot.
// Depth 0 is the run root (core.run, experiment.*), depth 1 its direct
// phases (input_manifold, scoring, ...). Deeper spans are too fine-grained —
// a forced GC per boundary would dominate the run.
const maxSnapshotDepth = 1

// Manifest is the serialized capture index.
type Manifest struct {
	Schema    string `json:"schema"`
	RunID     string `json:"run_id"`
	InputHash string `json:"input_hash,omitempty"`
	// Cold is never omitted: "warm" (false) is as meaningful as "cold" when
	// matching a profile-diff pair.
	Cold bool          `json:"cold"`
	Env  *resource.Env `json:"env,omitempty"`
	// Files maps each captured profile file name to the hex SHA-256 of its
	// content.
	Files map[string]string `json:"files"`
	// Truncated reports how many heap snapshots were dropped after the
	// per-run cap was reached (0 in healthy runs).
	Truncated int `json:"truncated,omitempty"`
}

// Capturer is one profile-capture session. All methods are safe on a nil
// receiver, so CLIs can thread an optional session without branching.
type Capturer struct {
	mu        sync.Mutex
	dir       string // the per-run directory
	cpuFile   *os.File
	inputHash string
	cold      bool
	snapshots int
	truncated int
	seen      map[string]int // phase name -> snapshots taken under that name
	closed    bool
	unobserve func() // removes the span observer installed by Start
}

// Start begins a capture session under dir: creates <dir>/<run_id>/, starts
// the run CPU profile, and installs the span observer that writes heap
// snapshots at phase boundaries. The caller must Close the session before
// exit or the CPU profile is lost.
func Start(dir string) (*Capturer, error) {
	if dir == "" {
		return nil, cirerr.New("profile.start", cirerr.ErrBadInput, "empty profile directory")
	}
	runDir := filepath.Join(dir, obs.RunID())
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, cirerr.Wrap("profile.start", cirerr.ErrBadInput, err)
	}
	f, err := os.Create(filepath.Join(runDir, CPUProfileFile))
	if err != nil {
		return nil, cirerr.Wrap("profile.start", cirerr.ErrBadInput, err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, cirerr.Wrap("profile.start", cirerr.ErrInternal, err)
	}
	c := &Capturer{dir: runDir, cpuFile: f, seen: map[string]int{}}
	c.unobserve = obs.AddSpanObserver(c.observe)
	return c, nil
}

// SetMeta records the run's input identity for the manifest. Safe on nil.
func (c *Capturer) SetMeta(inputHash string, cold bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.inputHash = inputHash
	c.cold = cold
	c.mu.Unlock()
}

// observe is the installed span observer: heap snapshots at top-level span
// ends. Runs on the goroutine ending the span, outside obs locks.
func (c *Capturer) observe(ev obs.SpanEvent) {
	if !ev.End || ev.Depth > maxSnapshotDepth {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if c.snapshots >= maxHeapSnapshots {
		c.truncated++
		return
	}
	name := sanitizePhase(ev.Name)
	c.seen[name]++
	if n := c.seen[name]; n > 1 {
		// A phase ending several times (repeated experiments) gets numbered
		// snapshots rather than overwriting the first.
		name = fmt.Sprintf("%s.%d", name, n)
	}
	if c.writeHeapSnapshot(name+".heap.pb.gz") == nil {
		c.snapshots++
	}
}

// writeHeapSnapshot writes one heap profile into the run directory; must hold
// c.mu. The forced GC makes the profile reflect live objects at the phase
// boundary instead of whatever the collector last saw.
func (c *Capturer) writeHeapSnapshot(file string) error {
	runtime.GC()
	f, err := os.Create(filepath.Join(c.dir, file))
	if err != nil {
		return err
	}
	// debug=0 emits the gzipped protobuf format `go tool pprof` consumes.
	werr := pprof.Lookup("heap").WriteTo(f, 0)
	cerr := f.Close()
	if werr != nil {
		os.Remove(f.Name())
		return werr
	}
	return cerr
}

// Close stops the CPU profile, uninstalls the span observer, and writes the
// manifest. Safe on nil and idempotent.
func (c *Capturer) Close() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.unobserve()
	pprof.StopCPUProfile()
	if err := c.cpuFile.Close(); err != nil {
		return cirerr.Wrap("profile.close", cirerr.ErrBadInput, err)
	}
	return c.writeManifest()
}

// writeManifest hashes every captured profile and writes manifest.json; must
// hold c.mu with closed already set.
func (c *Capturer) writeManifest() error {
	m := Manifest{
		Schema:    ManifestSchemaVersion,
		RunID:     obs.RunID(),
		InputHash: c.inputHash,
		Cold:      c.cold,
		Env:       resource.CaptureEnv(),
		Files:     map[string]string{},
		Truncated: c.truncated,
	}
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return cirerr.Wrap("profile.close", cirerr.ErrBadInput, err)
	}
	for _, e := range entries {
		if e.IsDir() || e.Name() == ManifestFile {
			continue
		}
		b, err := os.ReadFile(filepath.Join(c.dir, e.Name()))
		if err != nil {
			return cirerr.Wrap("profile.close", cirerr.ErrBadInput, err)
		}
		sum := sha256.Sum256(b)
		m.Files[e.Name()] = hex.EncodeToString(sum[:])
	}
	b, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return cirerr.Wrap("profile.close", cirerr.ErrInternal, err)
	}
	b = append(b, '\n')
	if err := os.WriteFile(filepath.Join(c.dir, ManifestFile), b, 0o644); err != nil {
		return cirerr.Wrap("profile.close", cirerr.ErrBadInput, err)
	}
	return nil
}

// Dir returns the per-run capture directory (empty on nil).
func (c *Capturer) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// ParseManifest decodes and validates a capture manifest.
func ParseManifest(b []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, cirerr.Wrap("profile.manifest", cirerr.ErrBadInput, err)
	}
	if m.Schema != ManifestSchemaVersion {
		return nil, cirerr.New("profile.manifest", cirerr.ErrBadInput, "schema %q, want %q", m.Schema, ManifestSchemaVersion)
	}
	for name, sum := range m.Files {
		if name == "" || strings.ContainsAny(name, "/\\") {
			return nil, cirerr.New("profile.manifest", cirerr.ErrBadInput, "invalid profile file name %q", name)
		}
		if len(sum) != 64 {
			return nil, cirerr.New("profile.manifest", cirerr.ErrBadInput, "file %q has malformed sha256 %q", name, sum)
		}
	}
	return &m, nil
}

// sanitizePhase maps a span name to a file-name-safe snapshot stem.
func sanitizePhase(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}
