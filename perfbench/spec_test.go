package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestValidName(t *testing.T) {
	for _, s := range []string{"chart_p50_ms", "rest.serve_p99_ms", "a", "9lives", "x-y.z_1"} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, s := range []string{"", ".hidden", "_x", "has space", "slash/y", "p99%", string(long)} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
}

func TestSpecLoads(t *testing.T) {
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) < 2 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		t.Fatalf("spec too small: %d workloads, %d end-to-end, %d per-layer", len(s.Workloads), len(s.EndToEnd), len(s.PerLayer))
	}
}

// BENCHMARK.json at the repository root must list exactly the spec's
// workloads and metrics, with the same units, directions and bounds,
// and run_seconds must be the benchmark's default run length.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		RunSeconds int                          `json:"run_seconds"`
		Workloads  []struct{ Name, Why string } `json:"workloads"`
		EndToEnd   []Metric                     `json:"end_to_end"`
		PerLayer   []Metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, perfbench defaults to %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(s.Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec %d", len(b.Workloads), len(s.Workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != s.Workloads[i].Name || w.Why != s.Workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, spec %q/%q", i, w.Name, w.Why, s.Workloads[i].Name, s.Workloads[i].Why)
		}
	}
	same := func(kind string, got, want []Metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, spec %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, spec %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", b.EndToEnd, s.EndToEnd)
	same("per_layer", b.PerLayer, s.PerLayer)
}
