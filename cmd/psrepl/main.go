// Command psrepl is the schedule-shipping replication pair: a primary
// that executes one deterministic engine run while streaming its
// schedule and commit records, and a follower that replays (or
// applies) the stream and verifies byte-identity against the primary.
// See docs/REPLICATION.md for the protocol and divergence semantics.
//
// Primary:
//
//	psrepl -listen 127.0.0.1:7471 -program prog.ops \
//	       -np 4 -seed 42 -checkpoint-every 256 -drain 10s
//
// Follower (replay replica, full re-execution):
//
//	psrepl -connect 127.0.0.1:7471 -id r1
//
// Follower (apply replica, snapshot + record suffix):
//
//	psrepl -connect 127.0.0.1:7471 -id r2 -mode apply
//
// The primary exits once the run finished and every connected follower
// acked the head LSN (or -drain expired); a follower exits after
// verifying the fin frame, printing the replicated run summary and
// store hash. A diverged follower exits nonzero.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"pdps/internal/obs"
	"pdps/internal/repl"
	"pdps/internal/server"
)

func main() {
	var (
		listen  = flag.String("listen", "", "run as primary: listen address for followers")
		connect = flag.String("connect", "", "run as follower: primary address")
		program = flag.String("program", "", "primary: rule program file (.ops)")

		scheme      = flag.String("scheme", "rcrawa", "locking scheme: 2pl or rcrawa")
		np          = flag.Int("np", 4, "worker count")
		deadlock    = flag.String("deadlock", "detect", "deadlock policy: detect or wound-wait")
		abortPolicy = flag.String("abort", "always", "Rc-victim policy: always or reevaluate")
		maxFirings  = flag.Int("max-firings", 0, "commit bound (0 = engine default)")
		seed        = flag.Int64("seed", 1, "primary schedule seed")
		ckptEvery   = flag.Int("checkpoint-every", 256, "records between apply-bootstrap checkpoints (negative disables)")
		followers   = flag.Int("followers", 0, "primary: wait for this many followers to fully drain before exiting")
		drain       = flag.Duration("drain", 10*time.Second, "primary: wait this long for followers to ack the head LSN")

		mode     = flag.String("mode", "replay", "follower mode: replay or apply")
		id       = flag.String("id", "", "follower metric label")
		waitFor  = flag.Duration("wait", 60*time.Second, "follower: fin verification timeout")
		metrics  = flag.Bool("metrics", false, "print the repl metrics snapshot on exit")
		metricsJ = flag.String("metrics-json", "", "write the repl metrics snapshot to this file")
	)
	flag.Parse()

	switch {
	case *listen != "" && *connect != "":
		log.Fatal("psrepl: -listen and -connect are mutually exclusive")
	case *listen != "":
		runPrimary(*listen, *program, repl.RunConfig{
			Scheme:     *scheme,
			Np:         *np,
			Deadlock:   *deadlock,
			Abort:      *abortPolicy,
			MaxFirings: *maxFirings,
			Seed:       *seed,
		}, *ckptEvery, *followers, *drain, *metrics, *metricsJ)
	case *connect != "":
		runFollower(*connect, *mode, *id, *waitFor, *metrics, *metricsJ)
	default:
		log.Fatal("psrepl: pass -listen (primary) or -connect (follower)")
	}
}

func runPrimary(addr, progFile string, cfg repl.RunConfig, ckptEvery, followers int,
	drain time.Duration, metrics bool, metricsJSON string) {
	if progFile == "" {
		log.Fatal("psrepl: primary needs -program")
	}
	src, err := os.ReadFile(progFile)
	if err != nil {
		log.Fatal(err)
	}
	p, err := repl.NewPrimary(repl.PrimaryOptions{
		Program:         string(src),
		Config:          cfg,
		CheckpointEvery: ckptEvery,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := p.Listen(addr); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("psrepl primary on %s (scheme=%s np=%d seed=%d)\n",
		p.Addr(), cfg.Scheme, cfg.Np, cfg.Seed)

	out, err := p.Run()
	if err != nil {
		p.Close()
		log.Fatalf("psrepl: run failed: %v", err)
	}
	fmt.Printf("run done: firings=%d aborts=%d halted=%v records=%d\n",
		out.Result.Firings, out.Result.Aborts, out.Result.Halted, p.HeadLSN())
	drained := false
	if followers > 0 {
		drained = p.WaitFollowersDrained(followers, drain)
	} else {
		drained = p.WaitDrained(drain)
	}
	if !drained {
		fmt.Println("drain timeout: some followers have not acked the head LSN")
	} else if followers > 0 {
		fmt.Printf("drained: %d followers acked the head LSN\n", followers)
	}
	writeMetrics(p.Metrics(), metrics, metricsJSON)
	p.Close()
}

func runFollower(addr, mode, id string, waitFor time.Duration, metrics bool, metricsJSON string) {
	if mode != server.ReplModeReplay && mode != server.ReplModeApply {
		log.Fatalf("psrepl: unknown -mode %q", mode)
	}
	f := repl.NewFollower(repl.FollowerOptions{ID: id, Mode: mode})
	if err := f.Connect(addr); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("psrepl follower %q connected to %s (mode=%s)\n", id, addr, mode)
	rep, err := f.Wait(waitFor)
	writeMetrics(f.Metrics(), metrics, metricsJSON)
	if err != nil {
		f.Close()
		log.Fatalf("psrepl: replica failed: %v", err)
	}
	fmt.Printf("replicated: mode=%s records=%d choices=%d fired=%d halted=%v quiescent=%v\n",
		rep.Mode, rep.Records, rep.Choices, rep.Fired, rep.Halted, rep.Quiescent)
	fmt.Printf("store hash %s (trace checked: %v)\n", rep.StoreHash, rep.TraceChecked)
	f.Close()
}

func writeMetrics(reg *obs.Registry, show bool, path string) {
	if !show && path == "" {
		return
	}
	snap := reg.Snapshot()
	if show {
		fmt.Println("psrepl: repl metrics:")
		snap.WriteText(os.Stdout)
	}
	if path != "" {
		b, err := snap.MarshalIndent()
		if err != nil {
			log.Fatal(err)
		}
		if dir := filepath.Dir(path); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				log.Fatal(err)
			}
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("psrepl: repl metrics written to %s\n", path)
	}
}
