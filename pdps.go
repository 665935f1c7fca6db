// Package pdps is a parallel database production system: a Go
// reproduction of "Parallelism in Database Production Systems"
// (Srivastava, Hwang, Tan — ICDE 1990). It provides:
//
//   - an OPS5-style rule language (Parse) and programmatic rule IR;
//   - incremental matchers (Rete, TREAT) over a transactional working
//     memory;
//   - three interpreters: the single execution thread mechanism, the
//     dynamic multiple-thread mechanism (goroutine workers firing
//     productions as transactions under either two-phase locking or
//     the paper's improved Rc/Ra/Wa scheme, with commit-time victim
//     aborts), and the static multiple-thread mechanism based on
//     interference analysis;
//   - the paper's formal execution-semantics model (abstract systems,
//     execution graphs, ES_single enumeration) and consistency
//     checkers implementing Definition 3.2;
//   - the Section 5 multiprocessor simulator that reproduces the
//     paper's speed-up figures.
//
// Quick start:
//
//	prog := pdps.MustParse(`
//	  (p hello (greeting ^to <x>) --> (remove 1))
//	  (wme greeting ^to world)`)
//	eng, _ := pdps.NewSingleEngine(prog, pdps.Options{})
//	res, _ := eng.Run()
//
// Observability: every engine carries a metrics registry recording
// the quantities Section 5's factor analysis argues about — lock
// conflicts by mode pair (Table 4.1), commit-time Rc victims (rule
// (ii)), abort/retry counts, lock-wait and commit-latency histograms,
// match and working-memory traffic. Take a structured snapshot at any
// time, even mid-run:
//
//	snap := eng.Metrics().Snapshot()
//	fmt.Println(snap.Counter("engine_commits_total"))
//
// See docs/OBSERVABILITY.md for the full metric catalog.
package pdps

import (
	"pdps/internal/core"
	"pdps/internal/cr"
	"pdps/internal/detsched"
	"pdps/internal/engine"
	"pdps/internal/lang"
	"pdps/internal/lock"
	"pdps/internal/match"
	"pdps/internal/obs"
	"pdps/internal/rete"
	"pdps/internal/sched"
	"pdps/internal/sim"
	"pdps/internal/storage"
	"pdps/internal/trace"
	"pdps/internal/wm"
	"pdps/internal/workload"
)

// Values and working memory.
type (
	// Value is a typed working-memory scalar.
	Value = wm.Value
	// WME is a working memory element (tuple).
	WME = wm.WME
	// Store is the shared, transactional working memory.
	Store = wm.Store
	// Delta is an atomic set of working-memory changes.
	Delta = wm.Delta
)

// ReadSnapshot reconstructs a store from a snapshot stream.
var ReadSnapshot = wm.ReadSnapshot

// Pluggable storage layer (Options.Storage): engines append one record
// per committed firing and group-commit fsync them; a backend recovers
// the working memory and the commit history after a crash.
type (
	// StorageBackend is the pluggable durability interface engines
	// drive (set it as Options.Storage).
	StorageBackend = storage.Backend
	// StorageRecord is one durable unit: the committed delta plus the
	// firing that produced it (empty rule name for non-firing deltas
	// such as the initial working memory).
	StorageRecord = storage.Record
	// StorageRecovery is the result of StorageBackend.Recover: the
	// reconstructed store, the durable LSN, and the commit records.
	StorageRecovery = storage.Recovery
	// LSN is a backend's log sequence number (1-based, dense).
	LSN = storage.LSN
	// MemBackend is the in-memory no-op-durability backend.
	MemBackend = storage.Mem
	// FileBackend is the segmented log-structured file backend with
	// snapshot checkpoints and log truncation.
	FileBackend = storage.File
	// FileBackendOptions tunes segment size and the auto-checkpoint
	// threshold of a FileBackend.
	FileBackendOptions = storage.FileOptions
)

var (
	// NewMemBackend returns an empty in-memory storage backend.
	NewMemBackend = storage.NewMem
	// OpenFileBackend opens or initialises a file-backend directory,
	// recovering from its newest snapshot plus the surviving log.
	OpenFileBackend = storage.OpenFile
	// OpenDurable is the durable-run bootstrap: it opens a file backend
	// in a directory, seeds a fresh one with the program's initial
	// working memory or adopts what an earlier run left, and clears the
	// program's WMEs. It returns the backend and the store to pass as
	// Options.Storage and Options.Restore, plus the Recovery found at
	// open.
	OpenDurable = engine.OpenDurable
)

// Value constructors.
var (
	// Int makes an integer value.
	Int = wm.Int
	// Float makes a floating-point value.
	Float = wm.Float
	// Str makes a string value.
	Str = wm.Str
	// Sym makes a symbol value.
	Sym = wm.Sym
	// Bool makes a boolean value.
	Bool = wm.Bool
)

// Rule IR (for building programs programmatically instead of Parse).
type (
	// Rule is a compiled production.
	Rule = match.Rule
	// Condition is one condition element of a rule's LHS.
	Condition = match.Condition
	// AttrTest constrains one attribute within a condition element.
	AttrTest = match.AttrTest
	// Action is one RHS operation.
	Action = match.Action
	// AttrAssign sets an attribute in a make/modify action.
	AttrAssign = match.AttrAssign
	// Expr is an RHS expression.
	Expr = match.Expr
	// ConstExpr is a literal expression.
	ConstExpr = match.ConstExpr
	// VarExpr references an LHS variable.
	VarExpr = match.VarExpr
	// BinExpr applies arithmetic to two subexpressions.
	BinExpr = match.BinExpr
	// Instantiation is a rule plus the WMEs satisfying its LHS.
	Instantiation = match.Instantiation
)

// Comparison operators for AttrTest.
const (
	OpEq = match.OpEq
	OpNe = match.OpNe
	OpLt = match.OpLt
	OpLe = match.OpLe
	OpGt = match.OpGt
	OpGe = match.OpGe
)

// Action kinds.
const (
	ActMake   = match.ActMake
	ActModify = match.ActModify
	ActRemove = match.ActRemove
	ActHalt   = match.ActHalt
)

// Arithmetic operators for BinExpr.
const (
	ArithAdd = match.ArithAdd
	ArithSub = match.ArithSub
	ArithMul = match.ArithMul
	ArithDiv = match.ArithDiv
	ArithMod = match.ArithMod
)

// Programs and engines.
type (
	// Program is a rule set plus initial working memory.
	Program = engine.Program
	// InitialWME declares one initial tuple.
	InitialWME = engine.InitialWME
	// Options configures an engine.
	Options = engine.Options
	// Result summarises a run.
	Result = engine.Result
	// AbortPolicy selects Rc-victim handling in the dynamic engine.
	AbortPolicy = engine.AbortPolicy
	// Strategy is a conflict-resolution strategy.
	Strategy = cr.Strategy
	// Scheme selects the lock compatibility matrix.
	Scheme = lock.Scheme
	// TraceLog is the event log of a run.
	TraceLog = trace.Log
	// TraceEvent is one logged event.
	TraceEvent = trace.Event
	// TraceKind discriminates trace event types.
	TraceKind = trace.Kind
)

// Trace event kinds.
const (
	// TraceFire records the start of a production's execution.
	TraceFire = trace.KindFire
	// TraceCommit records a successful commit.
	TraceCommit = trace.KindCommit
	// TraceAbort records an aborted firing.
	TraceAbort = trace.KindAbort
	// TraceSkip records an instantiation invalidated before execution.
	TraceSkip = trace.KindSkip
	// TraceHalt records a halt action.
	TraceHalt = trace.KindHalt
)

// Locking schemes of the dynamic engine.
const (
	// Scheme2PL is conventional two-phase locking (Section 4.2).
	Scheme2PL = lock.Scheme2PL
	// SchemeRcRaWa is the paper's improved scheme (Section 4.3).
	SchemeRcRaWa = lock.SchemeRcRaWa
)

// LockMode is one of the three lock modes of Section 4.3.
type LockMode = lock.Mode

// Lock modes.
const (
	// Rc is the condition-evaluation read lock.
	Rc = lock.Rc
	// Ra is the action-execution read lock.
	Ra = lock.Ra
	// Wa is the action-execution write lock.
	Wa = lock.Wa
)

// LockCompatible evaluates the scheme's compatibility matrix
// (Table 4.1 for SchemeRcRaWa).
var LockCompatible = lock.Compatible

// LockStats carries the lock manager's legacy counters, including the
// per-shard acquire/wait counts (shard assignment is seeded per
// manager, so these are diagnostics, not replay-stable metrics); the
// dynamic engine exposes them through its LockStats method. The
// deterministic equivalents live in the metrics registry as the
// lock_* series.
type LockStats = lock.Stats

// PipelineStats carries the dynamic engine's commit-pipeline queue
// depths (dispatch and submit, with peaks). It is a convenience view
// over the engine_dispatch_depth and engine_submit_depth gauges of
// Engine.Metrics, which supersedes it: a MetricsSnapshot carries the
// same depths plus every other series. The underlying gauges are
// atomic, so reading them while workers run is race-free.
type PipelineStats = engine.PipelineStats

// Observability (the engine metrics layer).
type (
	// Metrics is an engine's metric registry: atomic counters,
	// peak-tracking gauges, and lock-free log-scale histograms,
	// recorded into by the lock manager, the committer, the matcher
	// and working memory. Obtain it with Engine.Metrics; snapshot it
	// at any time, including mid-run.
	Metrics = obs.Registry
	// MetricsSnapshot is a structured, JSON-marshalable view of every
	// metric series at one moment. Series are sorted, all values are
	// integral, and all durations flow through Options.Clock, so under
	// a deterministic scheduler two replays of the same schedule
	// marshal to byte-identical snapshots.
	MetricsSnapshot = obs.Snapshot
	// MetricLabel is one key=value dimension of a metric series (e.g.
	// rule=advance, modes=Rc/Wa, class=part).
	MetricLabel = obs.Label
	// MetricPoint types of a snapshot.

	// CounterPoint is a counter's snapshot value.
	CounterPoint = obs.CounterPoint
	// GaugePoint is a gauge's snapshot value and peak.
	GaugePoint = obs.GaugePoint
	// HistogramPoint is a histogram's snapshot: count, sum, extrema
	// and the non-empty log-scale buckets.
	HistogramPoint = obs.HistogramPoint
)

// NewMetricLabel constructs a MetricLabel for snapshot lookups, e.g.
// snap.Counter("lock_conflicts_total", pdps.NewMetricLabel("modes", "Rc/Wa")).
var NewMetricLabel = obs.L

// NewMetrics returns an empty metrics registry. Pass it as
// Options.Metrics to aggregate several engines into one snapshot; by
// default each engine creates its own.
var NewMetrics = obs.NewRegistry

// DeadlockPolicy selects the dynamic engine's deadlock handling.
type DeadlockPolicy = lock.DeadlockPolicy

// Deadlock policies.
const (
	// DeadlockDetect aborts the youngest transaction of a waits-for cycle.
	DeadlockDetect = lock.DeadlockDetect
	// DeadlockWoundWait is the preemptive prevention scheme.
	DeadlockWoundWait = lock.DeadlockWoundWait
	// DeadlockWaitDie is the non-preemptive prevention scheme.
	DeadlockWaitDie = lock.DeadlockWaitDie
)

// Abort policies (Section 4.3 rule (ii) and its noted alternative).
const (
	AbortAlways     = engine.AbortAlways
	AbortReevaluate = engine.AbortReevaluate
)

// ErrInconsistent reports a semantic-consistency violation.
var ErrInconsistent = engine.ErrInconsistent

// Deterministic scheduling and testing (Options.Clock / Options.Sched).
type (
	// Clock supplies time to an engine: backoff timers and simulated
	// rule costs go through it (Options.Clock).
	Clock = sched.Clock
	// Scheduler is the deterministic cooperative scheduler: set it as
	// Options.Sched and call Engine.Run inside Scheduler.Run to make a
	// whole concurrent run a pure function of a SchedPolicy.
	Scheduler = sched.Det
	// SchedPolicy decides which runnable task runs at each scheduling
	// decision point.
	SchedPolicy = sched.Policy
	// SchedChoice records one scheduling decision for replay.
	SchedChoice = sched.Choice
	// DetConfig selects the engine variant a deterministic run tests.
	DetConfig = detsched.Config
	// DetOutcome is one deterministic run's result.
	DetOutcome = detsched.RunOutcome
	// ExploreReport summarises an exhaustive schedule exploration.
	ExploreReport = detsched.ExploreReport
)

var (
	// RealClock is the wall clock (the default).
	RealClock = sched.Real{}
	// ImmediateClock collapses every delay: sleeps return at once and
	// timers fire immediately — fast deterministic-ish tests without a
	// full scheduler.
	ImmediateClock = sched.Immediate{}
	// NewScheduler builds a deterministic scheduler around a policy.
	NewScheduler = sched.NewDet
	// NewRandomSchedPolicy is a seeded uniform-random schedule sampler;
	// the same seed replays the same schedule bit-for-bit.
	NewRandomSchedPolicy = sched.NewRandom
	// NewPCTSchedPolicy is a PCT-style priority schedule sampler.
	NewPCTSchedPolicy = sched.NewPCT
	// NewReplaySchedPolicy replays a recorded decision script.
	NewReplaySchedPolicy = sched.NewReplay
	// DetRun executes a program once on the dynamic engine under a
	// scheduling policy and returns the outcome.
	DetRun = detsched.Run
	// DetCheck validates a deterministic run's commit trace against the
	// single-thread execution semantics.
	DetCheck = detsched.Check
	// Explore exhaustively enumerates every schedule of a small program
	// and checks each trace (Definition 3.2 as a proof procedure).
	Explore = detsched.Explore
)

// Engine runs a production-system program. Implementations are the
// single execution thread mechanism (Section 3.1, the ES_single
// reference semantics), the dynamic locking mechanism (Sections
// 4.2–4.3) and the static interference-partition mechanism
// (Section 4.1, Theorem 1); all commit sequences they produce satisfy
// the semantic-consistency condition of Definition 3.2.
type Engine interface {
	// Run executes the program to quiescence, halt, error or limit.
	Run() (Result, error)
	// Store returns the engine's working memory.
	Store() *Store
	// Metrics returns the engine's metrics registry. Snapshots taken
	// while Run is in flight are race-free.
	Metrics() *Metrics
}

// NewSingleEngine builds the single execution thread interpreter.
func NewSingleEngine(p Program, opts Options) (Engine, error) {
	return engine.NewSingle(p, opts)
}

// NewParallelEngine builds the dynamic multiple-thread interpreter
// using the given locking scheme.
func NewParallelEngine(p Program, scheme Scheme, opts Options) (Engine, error) {
	return engine.NewParallel(p, scheme, opts)
}

// NewStaticEngine builds the static-partition multiple-thread
// interpreter (pre-execution interference analysis, Theorem 1).
func NewStaticEngine(p Program, opts Options) (Engine, error) {
	return engine.NewStatic(p, opts)
}

// Session is an interactive single-thread interpreter: assert and
// retract tuples between firings, inspect the conflict set, and step
// the recognize-act cycle (the substrate of cmd/psshell).
type Session struct {
	*engine.Session
}

// NewSession builds an interactive session over the program.
func NewSession(p Program, opts Options) (*Session, error) {
	s, err := engine.NewSession(p, opts)
	if err != nil {
		return nil, err
	}
	return &Session{Session: s}, nil
}

// Assert parses a tuple literal "(class ^attr value ...)" and adds it
// to working memory.
func (s *Session) Assert(src string) error {
	w, err := lang.ParseWME(src)
	if err != nil {
		return err
	}
	s.AssertWME(w.Class, w.Attrs)
	return nil
}

// NewStrategy returns the named conflict-resolution strategy: "lex",
// "mea", "fifo", "priority" or "random".
var NewStrategy = cr.New

// NewRandomStrategy returns a seeded random strategy (reproducible).
var NewRandomStrategy = cr.NewRandom

// Parse reads a program in the rule language.
var Parse = lang.Parse

// MustParse parses or panics.
var MustParse = lang.MustParse

// Format renders a program in the rule language (round-trips).
var Format = lang.Format

// CheckTrace verifies a commit sequence against the single-thread
// execution semantics (Definition 3.2).
var CheckTrace = engine.CheckTrace

// CheckTraceFrom is CheckTrace starting from an arbitrary working
// memory — the form crash recovery needs to validate a post-checkpoint
// trace tail.
var CheckTraceFrom = engine.CheckTraceFrom

// Interferes reports the static interference relation between rules
// (read-write or write-write overlap, Section 4.1).
var Interferes = match.Interferes

// RWSet is a rule's static read/write set over (class, attribute)
// columns.
type RWSet = match.RWSet

// RuleRWSet computes a rule's static read/write sets (Section 4.1).
var RuleRWSet = match.RuleRWSet

// ReteNetwork is a compiled Rete match network (topology, Dot
// rendering and join plans are exposed for analysis tooling).
type ReteNetwork = rete.Network

// RetePlan is one rule's compiled join order with its sharing and
// cost diagnostics (ReteNetwork.Plans).
type RetePlan = rete.RulePlan

// Matcher is the incremental match interface every engine drives.
type Matcher = match.Matcher

// Matcher construction (for join-plan inspection; engines normally
// select a matcher by name via Options.Matcher).
var (
	// NewReteNetwork returns an empty hashed-memory Rete network with
	// cost-ordered joins and beta-prefix sharing.
	NewReteNetwork = rete.New
	// NewSourceOrderReteNetwork returns the indexed network compiling
	// joins in rule-source order (the before-side of the E21 planning
	// experiment).
	NewSourceOrderReteNetwork = rete.NewSourceOrder
)

// CompileRete compiles the program's rules into a Rete network and
// seeds it with the initial working memory.
func CompileRete(p Program) (*ReteNetwork, error) {
	n := rete.New()
	for _, r := range p.Rules {
		if err := n.AddRule(r); err != nil {
			return nil, err
		}
	}
	s := wm.NewStore()
	for _, iw := range p.WMEs {
		n.Insert(s.Insert(iw.Class, iw.Attrs))
	}
	return n, nil
}

// Abstract model (Section 3) and multiprocessor simulator (Section 5).
type (
	// System is an abstract production system over add/delete sets.
	System = core.System
	// SimConfig parameterises a simulator run.
	SimConfig = sim.Config
	// SimResult is the simulator's outcome (σ, timings, speedup).
	SimResult = sim.Result
)

// Simulate runs the Section 5 multiprocessor model.
var Simulate = sim.Run

// Paper fixtures and workload generators.
var (
	// Fig32System is the Section 3.3 execution-graph example.
	Fig32System = workload.Fig32System
	// Fig51System is the Section 5 base case.
	Fig51System = workload.Fig51System
	// Fig52System is the degree-of-conflict variation.
	Fig52System = workload.Fig52System
	// Fig53System is the execution-time variation.
	Fig53System = workload.Fig53System
	// Fig54Np is the processor count of the Figure 5.4 variation.
	Fig54Np = workload.Fig54Np
	// Pipeline generates the embarrassingly parallel parts workload.
	Pipeline = workload.Pipeline
	// SharedCounter generates the high-conflict tally workload.
	SharedCounter = workload.SharedCounter
	// Guarded generates a workload with negated conditions.
	Guarded = workload.Guarded
	// RandomProgram generates random terminating concrete programs.
	RandomProgram = workload.RandomProgram
	// RandomAbstract generates random terminating abstract systems.
	RandomAbstract = workload.RandomAbstract
	// ConflictChain generates abstract systems with tunable conflict.
	ConflictChain = workload.ConflictChain
)
