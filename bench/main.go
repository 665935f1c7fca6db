// Command bench is the repo's benchmark — the firing ledger. It runs
// five fixed workloads against the system from outside (timing calls
// into public functions, reading the obs snapshots the program already
// exports), checks every output, and reports for each workload the
// end-to-end metrics of an untraced window and the per-layer metrics
// and ledger of a separate traced run. See README.md in this
// directory for the workloads, the metrics and which layer should move
// which metric.
//
// Usage:
//
//	go run ./bench                         # all workloads, one JSON document
//	go run ./bench -workload W -seed N -seconds S -trace 0|1   # one run, result on the last line
//	go run ./bench -compare A.json B.json  # regression table, exit 1 on any "worse"
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workloadDef is one benchmark workload and the reason it exists.
type workloadDef struct {
	name, why string
	new       func(cfg *config, tr *tracer) runner
}

var workloads = []workloadDef{
	{"svc-durable", "end-to-end path: wire, parse, session engine, trace streaming and a file WAL fsynced per ingest and per commit; lock and deep joins are bypassed",
		func(c *config, tr *tracer) runner { return newSvc(c, true, tr) }},
	{"svc-ephemeral", "identical traffic without StorageDir: bypasses storage only, so a storage change must leave it flat and a wire, parse or trace change must move both",
		func(c *config, tr *tracer) runner { return newSvc(c, false, tr) }},
	{"par-independent", "low-conflict extreme of Section 5: 32 rules over private classes, every lock granted at once, so the committer and conflict-set refresh dominate",
		func(c *config, tr *tracer) runner { return newEmb(c, parIndependent, tr) }},
	{"par-contended", "same lock and committer code used differently: hub tuple and negated conditions force waits, deadlock checks, Rc-victim aborts and retries",
		func(c *config, tr *tracer) runner { return newEmb(c, parContended, tr) }},
	{"match-join", "serial recognize-act over a 5-way join: rete, the conflict set and LEX select do the work; lock, storage and server do none",
		func(c *config, tr *tracer) runner { return newEmb(c, matchJoin, tr) }},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	WindowS    float64                `json:"window_s"`
	TracedS    float64                `json:"traced_s"`
	Cycles     int                    `json:"cycles"`
	Firings    int                    `json:"firings"`
	Slices     int                    `json:"slices"`
	Kept       int                    `json:"slices_kept"`
	Samples    int                    `json:"latency_samples"` // cycles of the kept slices
	AllPerS    float64                `json:"firings_per_s_all_slices"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Errors     []string               `json:"errors,omitempty"`
	EndToEnd   map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer   map[string]metricValue `json:"per_layer,omitempty"`
	LedgerBase string                 `json:"ledger_base,omitempty"`
	Ledger     []ledgerRow            `json:"ledger,omitempty"`
}

// report is the JSON document a full set writes.
type report struct {
	Env  environment `json:"env"`
	Runs []runResult `json:"runs"`
}

// environment stamps a report with where and how it was measured.
type environment struct {
	Seed       int64   `json:"seed"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitHead    string  `json:"git_head"`
	WindowS    float64 `json:"window_s"`
	TracedS    float64 `json:"traced_s"`
	StorageDir string  `json:"storage_dir"`
	StorageFS  string  `json:"storage_fs"`
	Note       string  `json:"note"`
}

func stampEnv(cfg *config) environment {
	head := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		head = strings.TrimSpace(string(out))
	}
	return environment{
		Seed: cfg.seed, NProc: cfg.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitHead: head,
		WindowS: cfg.window.Seconds(), TracedS: cfg.traced.Seconds(),
		StorageDir: cfg.dir, StorageFS: fsType(cfg.dir),
		Note: "closed loop, one process: service figures include the client codec and the harness goroutines",
	}
}

// fsType names the filesystem under dir; a tmpfs would make the
// durable workload's fsync free, so the report says what it ran on.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

func values(defs []metricDef, m map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return out
}

// endToEndMetrics derives the end-to-end metrics from an untraced
// window. The p90 comes from the raw samples.
func endToEndMetrics(w *window) map[string]float64 {
	lat := sortedCopy(durationsMS(w.keptSamples))
	p90, _ := percentile(lat, 0.9) // printResult says when the sample is too small to support it
	f := float64(w.firings)
	return map[string]float64{
		"setup_s":           w.setupTime.Seconds(),
		"firings_per_s":     w.firingsPerS(),
		"cycle_p90_ms":      p90,
		"cpu_us_per_firing": w.cpuNSPerFiring() / 1000,
		"allocs_per_firing": ratio(float64(w.mallocs), f),
		"bytes_per_firing":  ratio(float64(w.bytes), f),
		"live_heap_mb":      float64(w.liveHeap) / (1 << 20),
	}
}

func (res *runResult) absorb(w *window) {
	res.Attempted += w.cycles
	res.Failed += w.failed
	for _, err := range w.errs {
		if len(res.Errors) < 16 {
			res.Errors = append(res.Errors, err.Error())
		}
	}
}

// runWorkload measures one workload: the untraced window for the
// end-to-end metrics, then, when cfg.traced is set, a separate traced
// run on the same seed for the per-layer metrics and the ledger.
func runWorkload(def workloadDef, cfg *config) (runResult, error) {
	res := runResult{Workload: def.name, Seed: cfg.seed,
		WindowS: cfg.window.Seconds(), TracedS: cfg.traced.Seconds()}
	r, ref, err := measure(func() runner { return def.new(cfg, nil) }, cfg, nil, cfg.setupReps, cfg.window)
	if err != nil {
		return res, fmt.Errorf("%s: %w", def.name, err)
	}
	if err := r.teardown(); err != nil {
		return res, fmt.Errorf("%s: teardown: %w", def.name, err)
	}
	res.Cycles, res.Firings, res.AllPerS = ref.cycles, ref.firings, ref.allFiringsPerS()
	res.Slices, res.Kept, res.Samples = len(ref.slices), len(ref.kept), len(ref.keptSamples)
	res.absorb(ref)
	res.EndToEnd = values(endToEnd, endToEndMetrics(ref))
	if cfg.traced <= 0 {
		return res, nil
	}

	tr := newTracer()
	r, w, err := measure(func() runner { return def.new(cfg, tr) }, cfg, tr, 1, cfg.traced)
	if err != nil {
		return res, fmt.Errorf("%s traced: %w", def.name, err)
	}
	res.absorb(w)
	rep, lerr := r.layers(w, ref)
	if err := r.teardown(); err != nil {
		return res, fmt.Errorf("%s: teardown: %w", def.name, err)
	}
	if lerr != nil {
		res.Failed++
		res.Errors = append(res.Errors, "layers: "+lerr.Error())
		rep = &layerReport{}
	}
	res.PerLayer = values(perLayer, rep.metrics)
	res.Ledger, res.LedgerBase = rep.ledger, rep.base
	if err := writeJSONL(filepath.Join(cfg.dir, "spans-"+def.name+".jsonl"), w.spans); err != nil {
		return res, err
	}
	return res, nil
}

func printResult(res *runResult) {
	fmt.Printf("\n== %s  seed=%d  window=%.1fs  cycles=%d  firings=%d  failed=%d/%d\n",
		res.Workload, res.Seed, res.WindowS, res.Cycles, res.Firings, res.Failed, res.Attempted)
	fmt.Printf("   time-like metrics from the fastest %d of %d slices (%d latency samples); all slices: %.0f firings/s\n",
		res.Kept, res.Slices, res.Samples, res.AllPerS)
	if res.Samples < 10*minBeyond {
		fmt.Printf("   NOTE fewer than %d latency samples: cycle_p90_ms has fewer than %d samples beyond it\n", 10*minBeyond, minBeyond)
	}
	for _, e := range res.Errors {
		fmt.Printf("   ERROR %s\n", e)
	}
	for _, d := range endToEnd {
		fmt.Printf("   %-36s %14.4f %s\n", d.name, res.EndToEnd[d.name].Value, d.unit)
	}
	if res.PerLayer == nil {
		return
	}
	fmt.Printf("   -- per layer (traced run, %.1fs)\n", res.TracedS)
	for _, d := range perLayer {
		fmt.Printf("   %-36s %14.4f %s\n", d.name, res.PerLayer[d.name].Value, d.unit)
	}
	fmt.Printf("   -- ledger, base = %s\n", res.LedgerBase)
	for _, row := range res.Ledger {
		mark := ""
		if row.Residual {
			mark = "  (residual)"
		}
		fmt.Printf("   %-36s %12.0f ns/firing %6.1f%%%s\n", row.Layer, row.NSPerFiring, 100*row.Share, mark)
	}
}

// driverLine prints the one-object result line the acceptance driver
// reads: end-to-end metrics of an untraced run, per-layer metrics of a
// traced one.
func driverLine(res *runResult, traced bool) error {
	metrics := res.EndToEnd
	if traced {
		metrics = res.PerLayer
	}
	for name, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not finite", name)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	cfg := defaultConfig()
	var (
		workload = flag.String("workload", "", "run only this workload and print its result object on the last line")
		seconds  = flag.Int("seconds", 0, "with -workload: length of the run's measurement in seconds")
		traceArg = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics of an untraced run, 1 the per-layer metrics of a traced run")
		smoke    = flag.Bool("smoke", false, "0.3 s windows and short sessions: checks the harness, measures nothing")
		repeat   = flag.Int("repeat", 1, "run the whole set this many times into one document")
		out      = flag.String("out", "", "write the JSON document here (default <dir>/BENCH.json)")
		compare  = flag.Bool("compare", false, "compare two result documents: bench -compare A.json B.json (comma-separate several files per side)")
	)
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of every generated input")
	flag.StringVar(&cfg.dir, "dir", cfg.dir, "storage root for durable sessions and span files; use a real filesystem, not tmpfs")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare A.json B.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if *smoke {
		cfg.smoke()
	}
	runtime.GOMAXPROCS(cfg.nproc)
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fatal("%v", err)
	}

	if *workload != "" {
		os.Exit(runOne(&cfg, *workload, *seconds, *traceArg))
	}

	rep := report{Env: stampEnv(&cfg)}
	failed := 0
	for i := 0; i < *repeat; i++ {
		for _, def := range workloads {
			res, err := runWorkload(def, &cfg)
			if err != nil {
				fatal("%v", err)
			}
			printResult(&res)
			failed += res.Failed
			rep.Runs = append(rep.Runs, res)
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(cfg.dir, "BENCH.json")
	}
	doc, err := json.MarshalIndent(&rep, "", " ")
	if err != nil {
		fatal("%v", err)
	}
	if err := os.WriteFile(path, append(doc, '\n'), 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("\nwrote %s\n", path)
	if failed > 0 {
		fatal("%d failed cycles or checks", failed)
	}
}

// runOne is the acceptance driver's entry: one workload, one run of
// the given length, the result object on the last line of stdout. A
// traced run spends a third of its time on the untraced reference the
// overhead share and the ledger base are taken from.
func runOne(cfg *config, name string, seconds, traced int) int {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == name {
			def = &workloads[i]
		}
	}
	if def == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	if seconds > 0 {
		cfg.window, cfg.traced = time.Duration(seconds)*time.Second, 0
		if traced != 0 {
			cfg.window = time.Duration(seconds) * time.Second / 3
			cfg.traced = time.Duration(seconds)*time.Second - cfg.window
		}
	} else if traced == 0 {
		cfg.traced = 0
	}
	res, err := runWorkload(*def, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	printResult(&res)
	if err := driverLine(&res, traced != 0); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
