package main

import (
	"strings"
	"testing"

	"cirstag/internal/obs/history"
)

// The ledger gate compares the newest entry against the most recent earlier
// entry of the same input, cache temperature, and tool: entries of another
// input, temperature, or tool never serve as its baseline, and a first run
// has nothing to compare against.
func TestLoadLedgerPairPicksComparablePredecessor(t *testing.T) {
	dir := t.TempDir()
	add := func(runID, hash string, cold bool, tool string) {
		t.Helper()
		err := history.Append(dir, history.Entry{
			Schema: history.SchemaVersion, RunID: runID, Tool: tool,
			InputHash: hash, Cold: cold, PhasesMS: map[string]float64{"core.run": 100},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	add("a-warm-1", "a", false, "cirstag")
	add("a-warm-2", "a", false, "cirstag")
	add("a-cold", "a", true, "cirstag")
	add("b-warm", "b", false, "cirstag")
	add("a-server", "a", false, "cirstagd")
	add("a-warm-3", "a", false, "cirstag")

	base, cur, err := loadLedgerPair(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if base.RunID != "a-warm-2" || cur.RunID != "a-warm-3" {
		t.Fatalf("pair = %s -> %s, want a-warm-2 -> a-warm-3", base.RunID, cur.RunID)
	}

	if _, _, err := loadLedgerPair(dir, "b"); err == nil || !strings.Contains(err.Error(), "no prior entry") {
		t.Fatalf("first run of input b: err = %v, want no prior entry", err)
	}
}
