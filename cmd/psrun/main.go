// Command psrun executes a production-system program file (.ops rule
// language) under a chosen engine, strategy and locking scheme.
//
// Usage:
//
//	psrun [flags] program.ops
//
// Flags select the engine ("single", "parallel", "static"), the lock
// scheme for the parallel engine ("2pl", "rcrawa"), the conflict
// resolution strategy, worker count and verbosity.
//
// Observability flags: -metrics prints a text dump of every metric
// series after the run; -metrics-json prints the structured snapshot
// as JSON; -metrics-http ADDR serves the live registry as
// expvar-compatible JSON on ADDR/debug/vars while the run is in
// flight. See docs/OBSERVABILITY.md for the metric catalog.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"pdps"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("psrun: ")

	var (
		engineName = flag.String("engine", "single", "engine: single, parallel, static")
		scheme     = flag.String("scheme", "rcrawa", "lock scheme for parallel engine: 2pl, rcrawa")
		strategy   = flag.String("strategy", "lex", "conflict resolution: lex, mea, fifo, priority, specificity, random; also orders parallel dispatch (random dispatches as fifo)")
		np         = flag.Int("np", 4, "processors (workers) for parallel engines")
		maxFirings = flag.Int("max-firings", 10000, "firing safety bound")
		verify     = flag.Bool("verify", false, "verify semantic consistency at every commit")
		check      = flag.Bool("check", true, "check the trace against ES_single after the run")
		showTrace  = flag.Bool("trace", false, "print the full event trace")
		showWM     = flag.Bool("wm", false, "print the final working memory")
		dataDir    = flag.String("data", "", "durable storage directory: log and fsync every firing, recover prior state on reopen")

		showMetrics = flag.Bool("metrics", false, "print a text dump of the metrics registry after the run")
		metricsJSON = flag.Bool("metrics-json", false, "print the metrics snapshot as JSON after the run")
		metricsHTTP = flag.String("metrics-http", "", "serve live metrics as expvar JSON on this address (/debug/vars) during the run")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: psrun [flags] program.ops")
		flag.PrintDefaults()
		os.Exit(2)
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	prog, err := pdps.Parse(string(src))
	if err != nil {
		log.Fatal(err)
	}

	st, err := pdps.NewStrategy(*strategy)
	if err != nil {
		log.Fatal(err)
	}
	opts := pdps.Options{
		Strategy:   st,
		Np:         *np,
		MaxFirings: *maxFirings,
		Verify:     *verify,
	}
	// With -data, commits flow through the file storage backend: a fresh
	// directory is seeded with the program's initial working memory; a
	// non-empty one restores the recovered store (pdps.OpenDurable).
	var backend *pdps.FileBackend
	var restoreBase *pdps.Store
	if *dataDir != "" {
		var rec *pdps.StorageRecovery
		backend, opts.Restore, rec, err = pdps.OpenDurable(*dataDir, &prog)
		if err != nil {
			log.Fatal(err)
		}
		if rec.LSN > 0 {
			fmt.Printf("recovered %d records (LSN %d) from %s\n", len(rec.Records), rec.LSN, *dataDir)
		}
		restoreBase = opts.Restore.Clone()
		opts.Storage = backend
	}

	var eng pdps.Engine
	switch *engineName {
	case "single":
		eng, err = pdps.NewSingleEngine(prog, opts)
	case "parallel":
		var sch pdps.Scheme
		switch *scheme {
		case "2pl":
			sch = pdps.Scheme2PL
		case "rcrawa":
			sch = pdps.SchemeRcRaWa
		default:
			log.Fatalf("unknown scheme %q", *scheme)
		}
		eng, err = pdps.NewParallelEngine(prog, sch, opts)
	case "static":
		eng, err = pdps.NewStaticEngine(prog, opts)
	default:
		log.Fatalf("unknown engine %q", *engineName)
	}
	if err != nil {
		log.Fatal(err)
	}

	if *metricsHTTP != "" {
		// expvar's init registers /debug/vars on the default mux; the
		// published Func snapshots the registry on every scrape, so the
		// endpoint is live while workers run.
		expvar.Publish("pdps", eng.Metrics().Expvar())
		go func() {
			if err := http.ListenAndServe(*metricsHTTP, nil); err != nil {
				log.Printf("metrics endpoint: %v", err)
			}
		}()
		fmt.Printf("metrics: http://%s/debug/vars\n", *metricsHTTP)
	}

	start := time.Now()
	res, err := eng.Run()
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("engine=%s firings=%d aborts=%d skips=%d cycles=%d halted=%v limit=%v elapsed=%v\n",
		*engineName, res.Firings, res.Aborts, res.Skips, res.Cycles,
		res.Halted, res.LimitHit, elapsed.Round(time.Microsecond))

	if *showTrace {
		for _, e := range res.Log.Events() {
			fmt.Println(e)
		}
	}
	if *showWM {
		for _, w := range eng.Store().All() {
			fmt.Println(w)
		}
	}
	if *check {
		if restoreBase != nil {
			err = pdps.CheckTraceFrom(restoreBase, prog.Rules, res.Log.Commits())
		} else {
			err = pdps.CheckTrace(prog, res.Log.Commits())
		}
		if err != nil {
			log.Fatalf("trace check FAILED: %v", err)
		}
		fmt.Println("trace check: consistent with single-thread semantics")
	}
	if *showMetrics || *metricsJSON {
		snap := eng.Metrics().Snapshot()
		if *metricsJSON {
			b, err := snap.MarshalIndent()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(string(b))
		} else {
			fmt.Print(snap.Text())
		}
	}
	if backend != nil {
		lsn := backend.LSN()
		if err := backend.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("durable storage at %s (LSN %d)\n", *dataDir, lsn)
	}
}
