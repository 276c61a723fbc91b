package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics checks that BENCHMARK.json declares
// exactly the metrics and workloads this program reports, with the same
// units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range spec.EndToEnd {
		if i < len(endToEndMetrics) && m.Name != endToEndMetrics[i] {
			t.Errorf("end-to-end metric %d is %s in BENCHMARK.json, %s in the program", i, m.Name, endToEndMetrics[i])
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(layerMetrics))
	}
	for _, m := range spec.PerLayer {
		if unit, ok := layerUnits[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per-layer metric %s [%s] does not match the program's unit %q", m.Name, m.Unit, unit)
		}
	}
}
