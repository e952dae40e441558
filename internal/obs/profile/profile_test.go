package profile

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cirstag/internal/obs"
)

// withObs runs fn with recording enabled and a fixed run ID, restoring a
// clean disabled state afterwards.
func withObs(t *testing.T, fn func()) {
	t.Helper()
	obs.Reset()
	obs.Enable()
	obs.SetRunID("profile-test-run")
	defer func() {
		obs.Disable()
		obs.Reset()
		obs.SetRunID("")
	}()
	fn()
}

func TestCaptureWritesProfilesAndManifest(t *testing.T) {
	dir := t.TempDir()
	withObs(t, func() {
		c, err := Start(dir)
		if err != nil {
			t.Fatal(err)
		}
		c.SetMeta("hash-abc", true)

		root := obs.Start("core.run")
		phase := root.Child("input_manifold")
		deep := phase.Child("embedding") // depth 2: below the snapshot cutoff
		deep.End()
		phase.End()
		root.End()

		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("second Close must be a no-op, got %v", err)
		}

		runDir := filepath.Join(dir, "profile-test-run")
		if c.Dir() != runDir {
			t.Fatalf("Dir() = %q, want %q", c.Dir(), runDir)
		}
		for _, want := range []string{CPUProfileFile, "core.run.heap.pb.gz", "input_manifold.heap.pb.gz", ManifestFile} {
			fi, err := os.Stat(filepath.Join(runDir, want))
			if err != nil {
				t.Fatalf("missing capture artifact %s: %v", want, err)
			}
			if fi.Size() == 0 {
				t.Fatalf("capture artifact %s is empty", want)
			}
		}
		if _, err := os.Stat(filepath.Join(runDir, "embedding.heap.pb.gz")); err == nil {
			t.Fatal("depth-2 span must not trigger a heap snapshot")
		}

		b, err := os.ReadFile(filepath.Join(runDir, ManifestFile))
		if err != nil {
			t.Fatal(err)
		}
		m, err := ParseManifest(b)
		if err != nil {
			t.Fatal(err)
		}
		if m.RunID != "profile-test-run" || m.InputHash != "hash-abc" || !m.Cold {
			t.Fatalf("manifest identity wrong: %+v", m)
		}
		if m.Truncated != 0 {
			t.Fatalf("truncated = %d on a tiny run", m.Truncated)
		}
		if len(m.Files) != 3 {
			t.Fatalf("manifest lists %d files, want 3 (cpu + 2 heap): %v", len(m.Files), m.Files)
		}
		for name, wantSum := range m.Files {
			fb, err := os.ReadFile(filepath.Join(runDir, name))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(fb)
			if hex.EncodeToString(sum[:]) != wantSum {
				t.Fatalf("manifest hash for %s does not match content", name)
			}
		}
		if m.Env == nil || m.Env.GoVersion == "" {
			t.Fatalf("manifest missing environment fingerprint: %+v", m.Env)
		}
	})
}

func TestCaptureNumbersRepeatedPhases(t *testing.T) {
	dir := t.TempDir()
	withObs(t, func() {
		c, err := Start(dir)
		if err != nil {
			t.Fatal(err)
		}
		obs.Start("experiment.sweep").End()
		obs.Start("experiment.sweep").End()
		obs.Start("weird/phase name").End()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}

		for _, want := range []string{
			"experiment.sweep.heap.pb.gz",
			"experiment.sweep.2.heap.pb.gz",
			"weird_phase_name.heap.pb.gz",
		} {
			if _, err := os.Stat(filepath.Join(c.Dir(), want)); err != nil {
				t.Fatalf("missing snapshot %s: %v", want, err)
			}
		}
	})
}

func TestCaptureSnapshotCap(t *testing.T) {
	if testing.Short() {
		t.Skip("forces many GCs")
	}
	dir := t.TempDir()
	withObs(t, func() {
		c, err := Start(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < maxHeapSnapshots+5; i++ {
			obs.Start(fmt.Sprintf("phase-%03d", i)).End()
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(c.Dir(), ManifestFile))
		if err != nil {
			t.Fatal(err)
		}
		m, err := ParseManifest(b)
		if err != nil {
			t.Fatal(err)
		}
		if m.Truncated != 5 {
			t.Fatalf("truncated = %d, want 5", m.Truncated)
		}
		// cpu profile + capped heap snapshots.
		if len(m.Files) != maxHeapSnapshots+1 {
			t.Fatalf("manifest lists %d files, want %d", len(m.Files), maxHeapSnapshots+1)
		}
	})
}

func TestNilCapturerIsSafe(t *testing.T) {
	var c *Capturer
	c.SetMeta("x", false)
	if err := c.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	if c.Dir() != "" {
		t.Fatal("nil Dir must be empty")
	}
}

func TestParseManifestValidation(t *testing.T) {
	bad := map[string]string{
		"wrong schema":   `{"schema":"cirstag.profile/v9","run_id":"r","files":{}}`,
		"path traversal": `{"schema":"cirstag.profile/v1","run_id":"r","files":{"../x":"` + hex.EncodeToString(make([]byte, 32)) + `"}}`,
		"short hash":     `{"schema":"cirstag.profile/v1","run_id":"r","files":{"a.pb.gz":"abc"}}`,
	}
	for name, doc := range bad {
		if _, err := ParseManifest([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
