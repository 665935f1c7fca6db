// Package detsched is the deterministic schedule-exploration harness
// for the multiple-thread engines: it runs the committer loop under the
// internal/sched controller so a whole concurrent run — firing
// interleavings, lock waits, abort-backoff timers — is a pure function
// of a scheduling policy, then checks every commit trace against the
// single-thread execution semantics with engine.CheckTrace
// (Definition 3.2: the trace must be a root-originating path of the
// single-thread execution graph, ES_M ⊆ ES_single). The controller
// replaces only the pool of goroutines a free-running engine fires
// on: the committer loop and the firing code are the ones every
// free-running run executes, so what is explored here is what ships.
// The exported drivers build the dynamic engine (engine.NewParallel);
// the package's own tests also explore the static policy
// (engine.NewStatic), whose waves Theorem 1 says commit in any order.
//
// Three drivers sit on top of one another:
//
//   - Run: one schedule, chosen by a policy (seeded random walk,
//     PCT-style priority sampling, or a scripted replay). Same policy
//     seed ⇒ bit-for-bit the same trace.
//   - Explore: stateless depth-first enumeration of every schedule for
//     small programs and Np, by replaying recorded decision prefixes
//     with the last decision bumped — the exhaustive check that every
//     producible trace is admissible.
//   - Fuzz (fuzz.go): metamorphic fuzzing over generated programs ×
//     engine configurations × schedule seeds, with shrinking of
//     failures to minimal reproducers.
package detsched

import (
	"fmt"
	"strings"
	"time"

	"pdps/internal/engine"
	"pdps/internal/lock"
	"pdps/internal/obs"
	"pdps/internal/sched"
	"pdps/internal/storage"
	"pdps/internal/trace"
	"pdps/internal/wm"
)

// Config selects the engine variant a deterministic run tests.
type Config struct {
	// Scheme is the locking scheme (lock.Scheme2PL or lock.SchemeRcRaWa).
	Scheme lock.Scheme
	// Np is the worker count; 0 means 2 (exploration-friendly).
	Np int
	// Deadlock is the lock manager's deadlock policy.
	Deadlock lock.DeadlockPolicy
	// Abort is the Rc-victim policy.
	Abort engine.AbortPolicy
	// MaxFirings bounds commits; 0 means the engine default.
	MaxFirings int
	// CondDelay/RuleDelay simulate per-rule costs on the virtual clock.
	CondDelay map[string]time.Duration
	// RuleDelay simulates per-rule action cost on the virtual clock.
	RuleDelay map[string]time.Duration
	// MaxDecisions bounds scheduling decisions per run (a runaway
	// backstop); 0 means 1<<16.
	MaxDecisions int
	// Storage is the durable backend commits are appended to
	// (engine.Options.Storage); nil disables durability. Backend I/O
	// happens inline on the committer task, so a deterministic schedule
	// fixes the append and fsync order too.
	Storage storage.Backend
	// Restore seeds the engine's working memory from a recovered store
	// (engine.Options.Restore).
	Restore *wm.Store
}

func (c Config) np() int {
	if c.Np == 0 {
		return 2
	}
	return c.Np
}

func (c Config) maxDecisions() int {
	if c.MaxDecisions == 0 {
		return 1 << 16
	}
	return c.MaxDecisions
}

// String renders the configuration compactly for failure reports.
func (c Config) String() string {
	return fmt.Sprintf("scheme=%s np=%d deadlock=%s abort=%s",
		c.Scheme, c.np(), c.Deadlock, c.Abort)
}

// RunOutcome is one deterministic run's result.
type RunOutcome struct {
	// Result is the engine's summary (trace log included).
	Result engine.Result
	// Err is the engine's error, if any (e.g. ErrInconsistent).
	Err error
	// SchedErr is the controller's verdict: nil, sched.ErrBudget, a
	// *sched.StallError, or a surfaced task panic.
	SchedErr error
	// Choices is the recorded decision sequence; replaying it through
	// sched.NewReplay reproduces the schedule exactly.
	Choices []sched.Choice
	// Metrics is the engine's metric snapshot taken after the run. All
	// durations flowed through the controller's virtual clock and all
	// series are integral and sorted, so replaying the same schedule
	// yields a byte-identical snapshot (see TestMetricsDeterministic).
	Metrics obs.Snapshot
}

// Commits returns the outcome's commit events.
func (o RunOutcome) Commits() []trace.Event {
	if o.Result.Log == nil {
		return nil
	}
	return o.Result.Log.Commits()
}

// Run executes the program once on the Parallel engine under the
// scheduling policy and returns the outcome. The run is deterministic:
// the policy's decisions are the only source of scheduling freedom,
// and time is virtual.
func Run(p engine.Program, cfg Config, policy sched.Policy) RunOutcome {
	return RunUnder(p, cfg, sched.NewDet(policy))
}

// RunUnder executes the program once on the Parallel engine under a
// caller-built controller. The controller must be fresh (a Det is
// single-use); building it outside lets the caller install hooks —
// replication's primary sets ctl.OnChoice to stream decisions as they
// are made, and a follower drives the controller with a sched.Stream
// policy fed from the network. MaxSteps is defaulted from the config
// when the caller left it zero.
func RunUnder(p engine.Program, cfg Config, ctl *sched.Det) RunOutcome {
	return runUnder(p, cfg, ctl, dynamic)
}

// runner is an engine a deterministic run drives.
type runner interface {
	Run() (engine.Result, error)
	Metrics() *obs.Registry
}

// builder constructs the engine for one run.
type builder func(engine.Program, Config, engine.Options) (runner, error)

// dynamic builds the Parallel engine under the configured scheme.
func dynamic(p engine.Program, cfg Config, opts engine.Options) (runner, error) {
	return engine.NewParallel(p, cfg.Scheme, opts)
}

// static builds the committer loop under Section 4.1's static policy;
// the configuration's lock fields do not apply to it.
func static(p engine.Program, _ Config, opts engine.Options) (runner, error) {
	return engine.NewStatic(p, opts)
}

// exploreStatic is Explore over the static policy.
func exploreStatic(p engine.Program, cfg Config, maxSchedules int) (ExploreReport, error) {
	return explore(p, cfg, maxSchedules, static)
}

func runUnder(p engine.Program, cfg Config, ctl *sched.Det, build builder) RunOutcome {
	if ctl.MaxSteps == 0 {
		ctl.MaxSteps = cfg.maxDecisions()
	}
	opts := engine.Options{
		Np:          cfg.np(),
		Deadlock:    cfg.Deadlock,
		AbortPolicy: cfg.Abort,
		MaxFirings:  cfg.MaxFirings,
		CondDelay:   cfg.CondDelay,
		RuleDelay:   cfg.RuleDelay,
		Sched:       ctl,
		Storage:     cfg.Storage,
		Restore:     cfg.Restore,
	}
	eng, err := build(p, cfg, opts)
	if err != nil {
		return RunOutcome{Err: err}
	}
	var res engine.Result
	var rerr error
	serr := ctl.Run(func() {
		res, rerr = eng.Run()
	})
	return RunOutcome{Result: res, Err: rerr, SchedErr: serr, Choices: ctl.Choices(),
		Metrics: eng.Metrics().Snapshot()}
}

// Check validates an outcome: the schedule must have completed, the
// engine must not have erred, and the commit trace must pass
// engine.CheckTrace against the program.
func Check(p engine.Program, out RunOutcome) error {
	if out.SchedErr != nil {
		return fmt.Errorf("detsched: schedule did not complete: %w", out.SchedErr)
	}
	if out.Err != nil {
		return fmt.Errorf("detsched: engine error: %w", out.Err)
	}
	return engine.CheckTrace(p, out.Commits())
}

// SeqKey canonicalises a commit trace to its serialization: the
// ordered list of rule names with the content fingerprints of the
// matched tuples. Two runs with equal SeqKey committed the same
// logical sequence.
func SeqKey(commits []trace.Event) string {
	var b strings.Builder
	for i, ev := range commits {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(ev.Rule)
		b.WriteByte('[')
		b.WriteString(strings.Join(ev.WMEs, ","))
		b.WriteByte(']')
	}
	return b.String()
}

// ExploreReport summarises an exhaustive exploration.
type ExploreReport struct {
	// Schedules is the number of distinct schedules executed.
	Schedules int
	// Serializations maps each distinct commit sequence (SeqKey) to
	// the number of schedules that produced it — the slice of ES_M the
	// mechanism actually realises.
	Serializations map[string]int
	// Truncated reports that MaxSchedules stopped the walk early.
	Truncated bool
}

// Explore enumerates every schedule of the program under the
// configuration by stateless depth-first search over the decision
// tree: each iteration replays a recorded prefix with its last
// incrementable decision bumped, so no scheduler state survives
// between runs. Every trace is checked with engine.CheckTrace; the
// first violation aborts the walk with an error that carries the
// reproducing decision script. maxSchedules 0 means unbounded.
func Explore(p engine.Program, cfg Config, maxSchedules int) (ExploreReport, error) {
	return explore(p, cfg, maxSchedules, dynamic)
}

func explore(p engine.Program, cfg Config, maxSchedules int, build builder) (ExploreReport, error) {
	rep := ExploreReport{Serializations: make(map[string]int)}
	var prefix []int
	for {
		out := runUnder(p, cfg, sched.NewDet(sched.NewReplay(prefix)), build)
		rep.Schedules++
		if err := Check(p, out); err != nil {
			return rep, fmt.Errorf("schedule %v: %w", prefix, err)
		}
		rep.Serializations[SeqKey(out.Commits())]++
		if maxSchedules > 0 && rep.Schedules >= maxSchedules {
			if nextPrefix(out.Choices) != nil {
				rep.Truncated = true
			}
			return rep, nil
		}
		prefix = nextPrefix(out.Choices)
		if prefix == nil {
			return rep, nil
		}
	}
}

// nextPrefix computes the depth-first successor of a recorded decision
// sequence: the longest prefix whose last decision can be bumped, or
// nil when the tree is exhausted.
func nextPrefix(choices []sched.Choice) []int {
	i := len(choices) - 1
	for ; i >= 0; i-- {
		if choices[i].Picked < choices[i].N-1 {
			break
		}
	}
	if i < 0 {
		return nil
	}
	out := make([]int, i+1)
	for j := 0; j < i; j++ {
		out[j] = choices[j].Picked
	}
	out[i] = choices[i].Picked + 1
	return out
}
