// Package pdps is a parallel database production system: a Go
// reproduction of "Parallelism in Database Production Systems"
// (Srivastava, Hwang, Tan — ICDE 1990). It provides:
//
//   - an OPS5-style rule language (Parse, Format);
//   - an incremental Rete matcher over a transactional working
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
// Every exported name here is used by an example, one of the facade
// commands (psanalyze, psgen, psrun, psshell) or a test of this
// package; TestExportedAPIReferenced keeps it that way.
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
	// Store is the shared, transactional working memory.
	Store = wm.Store
)

// Value constructors.
var (
	// Int makes an integer value.
	Int = wm.Int
	// Sym makes a symbol value.
	Sym = wm.Sym
	// Bool makes a boolean value.
	Bool = wm.Bool
)

// Durable runs (Options.Storage): engines append one record per
// committed firing and fsync it before acknowledging it; the file
// backend recovers the working memory and the commit history after a
// crash.
type (
	// FileBackend is the segmented log-structured file backend with
	// snapshot checkpoints and log truncation.
	FileBackend = storage.File
	// FileBackendOptions tunes segment size and the auto-checkpoint
	// threshold of a FileBackend.
	FileBackendOptions = storage.FileOptions
	// StorageRecovery is what a backend recovered: the reconstructed
	// store, the durable LSN, and the commit records.
	StorageRecovery = storage.Recovery
)

var (
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

// Programs and engines.
type (
	// Program is a rule set plus initial working memory.
	Program = engine.Program
	// InitialWME declares one initial tuple.
	InitialWME = engine.InitialWME
	// Options configures an engine. AbortPolicy and Deadlock are
	// in-module settings: the facade names no non-default value for
	// them, which only detsched.Fuzz's policy sweep, psrepl's -abort
	// and -deadlock flags and engine tests set.
	Options = engine.Options
	// Result summarises a run.
	Result = engine.Result
	// Scheme selects the lock compatibility matrix.
	Scheme = lock.Scheme
	// TraceLog is the event log of a run.
	TraceLog = trace.Log
	// TraceEvent is one logged event.
	TraceEvent = trace.Event
)

// TraceCommit is the trace kind of a successful commit.
const TraceCommit = trace.KindCommit

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

// Metrics is an engine's metric registry: atomic counters,
// peak-tracking gauges, and lock-free log-scale histograms, recorded
// into by the lock manager, the committer, the matcher and working
// memory. Obtain it with Engine.Metrics; snapshot it at any time,
// including mid-run. Under a deterministic scheduler two replays of
// the same schedule marshal to byte-identical snapshots.
type Metrics = obs.Registry

// DetConfig selects the engine variant a deterministic run tests
// (Options.Sched).
type DetConfig = detsched.Config

// Deterministic scheduling and testing.
var (
	// NewRandomSchedPolicy is a seeded uniform-random schedule sampler;
	// the same seed replays the same schedule bit-for-bit.
	NewRandomSchedPolicy = sched.NewRandom
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

// NewReteNetwork returns an empty hashed-memory Rete network with
// cost-ordered joins and beta-prefix sharing, for join-plan
// inspection; every engine builds its own.
var NewReteNetwork = rete.New

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
	// ConflictChain generates abstract systems with tunable conflict.
	ConflictChain = workload.ConflictChain
)
