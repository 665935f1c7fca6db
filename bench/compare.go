package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// loadRuns reads one side of a comparison: one or more result
// documents, comma-separated, pooled into runs per workload.
func loadRuns(arg string) (map[string][]runResult, error) {
	out := make(map[string][]runResult)
	for _, path := range strings.Split(arg, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, run := range rep.Runs {
			out[run.Workload] = append(out[run.Workload], run)
		}
	}
	return out, nil
}

// verdict judges side B against baseline A for one metric: "worse"
// when B's median is worse than A's by more than the bound,
// "unresolved" when it is not but either side's run-to-run spread is
// wider than the bound, "ok" otherwise.
func verdict(d metricDef, a, b []float64) string {
	ma, mb := median(a), median(b)
	worse := mb > ma*(1+d.bound)
	if d.higher {
		worse = mb < ma*(1-d.bound)
	}
	switch {
	case worse:
		return "worse"
	case spread(a) > d.bound || spread(b) > d.bound:
		return "unresolved"
	}
	return "ok"
}

// compareFiles prints one row per workload and end-to-end metric and
// returns the exit code: 1 when any row is worse or any run failed.
func compareFiles(argA, argB string) int {
	a, err := loadRuns(argA)
	if err != nil {
		fatal("%v", err)
	}
	b, err := loadRuns(argB)
	if err != nil {
		fatal("%v", err)
	}
	code := 0
	fmt.Printf("%-16s %-18s %14s %14s  %-22s %6s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "B/A (base A)", "bound", "spreadA", "spreadB", "verdict")
	for _, def := range workloads {
		ra, rb := a[def.name], b[def.name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Printf("%-16s missing on one side\n", def.name)
			code = 1
			continue
		}
		for _, run := range append(append([]runResult(nil), ra...), rb...) {
			if run.Failed > 0 {
				fmt.Printf("%-16s a run failed %d of %d\n", def.name, run.Failed, run.Attempted)
				code = 1
			}
		}
		for _, d := range endToEnd {
			va, vb := column(ra, d.name), column(rb, d.name)
			v := verdict(d, va, vb)
			if v == "worse" {
				code = 1
			}
			ma := median(va)
			fmt.Printf("%-16s %-18s %14.4f %14.4f  %-22s %5.0f%% %7.1f%% %7.1f%%  %s\n",
				def.name, d.name, ma, median(vb),
				fmt.Sprintf("%.3fx of %.4g %s", ratio(median(vb), ma), ma, d.unit),
				100*d.bound, 100*spread(va), 100*spread(vb), v)
		}
	}
	return code
}

// column extracts one end-to-end metric across runs.
func column(runs []runResult, name string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.EndToEnd[name].Value
	}
	return out
}
