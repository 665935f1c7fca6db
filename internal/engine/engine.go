// Package engine implements the production-system interpreters of the
// paper: the single execution thread mechanism (Section 3.1), the
// multiple-thread dynamic approach — transactional rule firing by
// goroutine workers under a lock manager, with commit-time victim
// aborts (Sections 4.2–4.3) — and the multiple-thread static approach
// based on pre-execution interference analysis (Section 4.1,
// Theorem 1). Every engine matches with the Rete network of
// internal/rete, the paper's match substrate. All engines record their
// execution in a trace log whose commit subsequence can be checked
// against the single-thread semantics (Definition 3.2).
package engine

import (
	"errors"
	"time"

	"pdps/internal/cr"
	"pdps/internal/lock"
	"pdps/internal/match"
	"pdps/internal/obs"
	"pdps/internal/rete"
	"pdps/internal/sched"
	"pdps/internal/storage"
	"pdps/internal/trace"
	"pdps/internal/wm"
)

// InitialWME describes one tuple of the program's initial working
// memory.
type InitialWME struct {
	Class string
	Attrs map[string]wm.Value
}

// Program is a complete production-system program: rules plus initial
// working memory.
type Program struct {
	Rules []*match.Rule
	WMEs  []InitialWME
}

// AbortPolicy selects how the dynamic engine treats Rc holders that
// conflict with a committing writer (Section 4.3, rule (ii)).
type AbortPolicy uint8

const (
	// AbortAlways unconditionally aborts every conflicting Rc holder —
	// the paper's base rule (ii).
	AbortAlways AbortPolicy = iota
	// AbortReevaluate re-evaluates the victim's condition first and
	// spares it when the writer's update left its instantiation intact —
	// the paper's noted alternative, "at the expense of increased
	// overhead".
	AbortReevaluate
)

// String names the policy.
func (p AbortPolicy) String() string {
	if p == AbortAlways {
		return "always"
	}
	return "reevaluate"
}

// Options configures an engine. Every engine matches with the Rete
// network (hashed memories, cost-ordered joins and beta-prefix
// sharing); the zero value selects the LEX strategy and a 10000-firing
// safety bound.
type Options struct {
	// Strategy is the conflict-resolution strategy; nil means LEX. It
	// orders every engine: the serial step picks by it, Static seeds
	// each batch with its pick, and Parallel dispatches in its order
	// when workers are fewer than ready instantiations. Random has no
	// total order, so under it Parallel dispatches in FIFO's.
	Strategy cr.Strategy
	// MaxFirings bounds the number of commits; 0 means 10000. When the
	// bound is hit the run stops with Result.LimitHit set. A Session
	// ignores it: each Session.Run call carries its own bound.
	MaxFirings int
	// Np is the worker (processor) count for parallel engines; 0 means 4,
	// and every engine refuses a negative value.
	Np int
	// AbortPolicy selects victim handling in the dynamic engine.
	AbortPolicy AbortPolicy
	// Deadlock selects the lock manager's deadlock policy for the
	// dynamic engine: detection (default) or wound-wait.
	Deadlock lock.DeadlockPolicy
	// Verify recomputes the rule's matches from scratch against the
	// shared store at every commit and fails the run if the committing
	// instantiation is not active — a runtime check of the semantic
	// consistency condition.
	Verify bool
	// RuleDelay simulates per-rule action cost (Section 5's execution
	// times) by sleeping inside the firing.
	RuleDelay map[string]time.Duration
	// CondDelay simulates per-rule condition-evaluation cost: the
	// dynamic engine sleeps after acquiring the Rc locks and before
	// requesting the Ra/Wa locks, widening the window in which Rc
	// locks are held alone (the window Figures 4.3–4.4 reason about).
	CondDelay map[string]time.Duration
	// Clock supplies time to the engine: abort-backoff timers, the
	// simulated CondDelay/RuleDelay costs and latency measurement all
	// go through it. Nil means the wall clock (sched.Real); inject
	// sched.Immediate to collapse every delay in tests.
	Clock sched.Clock
	// Sched, when non-nil, runs the dynamic engine under a
	// deterministic cooperative scheduler: all engine goroutines become
	// controlled tasks, lock waits and backoff timers are virtualised,
	// and the interleaving is decided by the controller's policy.
	// Engine.Run must then be called from inside the controller's Run.
	// Sched overrides Clock.
	Sched sched.Controller
	// Metrics is the obs registry every layer of the engine records
	// into (lock manager, committer, matcher, working memory). Nil
	// means a fresh registry per engine; pass a shared one to aggregate
	// several engines into one snapshot.
	Metrics *obs.Registry
	// Log receives events; nil means a fresh log.
	Log *trace.Log
	// Storage, when non-nil, is the durability backend: every committed
	// delta is appended as a storage record (rule, instantiation,
	// matched-WME fingerprints, delta), and a commit counts as
	// acknowledged only once a Sync covers it. Single and the Parallel
	// committer fsync every commit; Static fsyncs once per batch of
	// non-interfering firings; a Session fsyncs at its ack boundary —
	// Session.Sync, or the end of Session.Run — once for every commit
	// staged since the last one, and its caller must not report a
	// commit before that Sync returns. The engine does not close the
	// backend — the caller owns its lifecycle. See internal/storage.
	Storage storage.Backend
	// Restore, when non-nil, seeds the engine's working memory with a
	// recovered store (from Backend.Recover) instead of building a
	// fresh one; Program.WMEs are still inserted on top, so resuming
	// callers normally clear them. The engine takes ownership of the
	// store.
	Restore *wm.Store
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Strategy == nil {
		out.Strategy = cr.LEX{}
	}
	if out.MaxFirings == 0 {
		out.MaxFirings = 10000
	}
	if out.Np == 0 {
		out.Np = 4
	}
	if out.Sched != nil {
		out.Clock = out.Sched
	} else if out.Clock == nil {
		out.Clock = sched.Real{}
	}
	if out.Metrics == nil {
		out.Metrics = obs.NewRegistry()
	}
	if out.Log == nil {
		out.Log = trace.New()
	}
	return out
}

// ErrInconsistent is returned when Verify detects a commit of an
// inactive instantiation — a violation of Definition 3.2.
var ErrInconsistent = errors.New("engine: semantic consistency violation")

// Result summarises a run.
type Result struct {
	// Firings is the number of committed productions.
	Firings int
	// Aborts counts aborted executions (deadlock or Rc–Wa victims).
	Aborts int
	// Skips counts dispatched instantiations found stale before
	// execution.
	Skips int
	// Cycles counts recognize-act cycles (single-thread) or dispatch
	// rounds (parallel).
	Cycles int
	// Halted reports that a halt action stopped the run.
	Halted bool
	// LimitHit reports that MaxFirings stopped the run.
	LimitHit bool
	// Log is the event log of the run.
	Log *trace.Log
	// Store is the final working memory.
	Store *wm.Store
}

// load builds the store and the Rete network for a program: rules
// first, then the initial working memory. Both are wired into the
// options' metrics registry before the first insert, so even the
// initial load is observable.
func load(p Program, o Options) (*wm.Store, match.Matcher, error) {
	// The network records its index probe/scan counters itself;
	// match.Instrument below adds the generic op timings.
	inner := rete.New()
	inner.SetMetrics(o.Metrics)
	for _, r := range p.Rules {
		if err := inner.AddRule(r); err != nil {
			return nil, nil, err
		}
	}
	m := match.Instrument(inner, o.Metrics, o.Clock)
	store := o.Restore
	if store == nil {
		store = wm.NewStore()
	}
	store.SetMetrics(o.Metrics)
	// A restored store's WMEs enter the match network exactly like
	// initial working memory, so recovery resumes with the conflict
	// set the surviving state implies.
	for _, w := range store.All() {
		m.Insert(w)
	}
	for _, iw := range p.WMEs {
		m.Insert(store.Insert(iw.Class, iw.Attrs))
	}
	return store, m, nil
}

// fingerprints renders the matched WMEs' contents for the trace event
// and the storage record. All of them go into one buffer that a single
// conversion copies out, and each fingerprint is a substring of that
// string, so a commit costs two allocations: the string and the slice.
func fingerprints(in *match.Instantiation) []string {
	var stack [1024]byte // a longer rendering grows onto the heap
	var endStack [8]int
	b, ends := stack[:0], endStack[:0]
	for _, w := range in.WMEs {
		b = w.AppendTo(b)
		ends = append(ends, len(b))
	}
	all := string(b)
	out := make([]string, len(ends))
	start := 0
	for i, end := range ends {
		out[i] = all[start:end]
		start = end
	}
	return out
}

// verifyActive recomputes the rule's instantiations against the store
// and reports whether the instantiation is genuinely active.
func verifyActive(store *wm.Store, in *match.Instantiation) bool {
	for _, fresh := range match.MatchRule(store, in.Rule) {
		if fresh.Key() == in.Key() {
			return true
		}
	}
	return false
}
