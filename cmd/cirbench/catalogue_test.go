package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// BENCHMARK.json at the repository root declares what this program reports;
// the two must name the same workloads and metrics, with the same units and
// directions.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for name := range workloads {
		ours = append(ours, name)
	}
	sort.Strings(names)
	sort.Strings(ours)
	if len(names) != len(ours) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, ours)
	} else {
		for i := range names {
			if names[i] != ours[i] {
				t.Errorf("BENCHMARK.json workloads %v, program has %v", names, ours)
				break
			}
		}
	}
	for _, c := range []struct {
		kind string
		json []metric
		defs []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", c.kind, len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			d := c.defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.kind, i, m, d)
			}
		}
	}
	for name := range counterNames {
		if !declared(name) {
			t.Errorf("counter metric %s is not in the per-layer catalogue", name)
		}
	}
}

func declared(name string) bool {
	for _, d := range perLayer {
		if d.name == name {
			return true
		}
	}
	return false
}
