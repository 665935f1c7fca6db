package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the tables the
// command reports from in step: same workloads, same metrics, same
// units, directions and bounds.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the command reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		better := "lower"
		if d.higher {
			better = "higher"
		}
		if m.Name != d.name || m.Unit != d.unit || m.Better != better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the command %+v", i, m, d)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the command reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the command %+v", i, m, perLayer[i])
		}
	}
}

// TestSmoke runs every workload end to end with 0.3 s windows, traced
// run and layer replays included, and requires every metric
// BENCHMARK.json names to come out finite with nothing failed. It
// checks the harness, not the numbers.
func TestSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	cfg := defaultConfig()
	cfg.smoke()
	cfg.dir = t.TempDir()
	for _, def := range workloads {
		res, err := runWorkload(def, &cfg)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: failed %d of %d: %v", def.name, res.Failed, res.Attempted, res.Errors)
		}
		for _, m := range bf.EndToEnd {
			v, ok := res.EndToEnd[m.Name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v (present=%v)", def.name, m.Name, v, ok)
			}
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", def.name, m.Name, v.Value)
			}
		}
		for _, m := range bf.PerLayer {
			v, ok := res.PerLayer[m.Name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s = %+v (present=%v)", def.name, m.Name, v, ok)
			}
		}
		if len(res.Ledger) == 0 || !res.Ledger[len(res.Ledger)-1].Residual {
			t.Errorf("%s: ledger has no residual row: %+v", def.name, res.Ledger)
		}
	}
}
