package engine

import (
	"fmt"

	"pdps/internal/match"
	"pdps/internal/storage"
	"pdps/internal/trace"
	"pdps/internal/wm"
)

// runtime bundles the state and plumbing every engine shares: the
// loaded store and matcher, refraction memory, the run counters, and
// the commit sequence — verify, atomic delta application, WAL append,
// incremental re-match, and trace events. Engines differ only in how
// they schedule firings around it.
//
// runtime methods are not concurrency-safe. Serial engines call them
// from their run loop; the dynamic engine calls them from its single
// committer goroutine, which is the point of the design — the matcher
// and conflict set have exactly one writer.
type runtime struct {
	opts    Options
	store   *wm.Store
	matcher match.Matcher
	// fired is the refraction memory: fired instantiations by key,
	// pruned by refract. liveAtSweep is its size after the last sweep,
	// which sets when the next one runs.
	fired       map[string]*match.Instantiation
	liveAtSweep int
	// agenda orders the unfired conflict set for next by the strategy;
	// nil until the first next, and after LoadSnapshot.
	agenda *agenda

	// met holds the engine-layer metric handles; the run counters
	// (commits/aborts/skips/cycles) are its atomic series, so a
	// Snapshot taken while workers run reads consistent values.
	met *engineMetrics
	// smet holds the durability handles; nil unless Options.Storage is
	// set, so storage-free engines keep their registry shape.
	smet *storageMetrics
	// pendingAppends counts records appended since the last storage
	// sync — the size of the group the next fsync makes durable.
	pendingAppends int

	halted bool
	limit  bool
	err    error
}

// newRuntime loads the program and returns the shared engine state.
// It refuses a negative Np for every engine, serial ones included, so a
// configuration is valid or not whichever engine it reaches.
func newRuntime(p Program, opts Options) (*runtime, error) {
	if opts.Np < 0 {
		return nil, fmt.Errorf("engine: Np %d is negative", opts.Np)
	}
	o := opts.withDefaults()
	store, m, err := load(p, o)
	if err != nil {
		return nil, err
	}
	rt := &runtime{opts: o, store: store, matcher: m, fired: make(map[string]*match.Instantiation),
		met: newEngineMetrics(o.Metrics)}
	if o.Storage != nil {
		rt.smet = newStorageMetrics(o.Metrics)
	}
	return rt, nil
}

// firings returns the committed-production count.
func (rt *runtime) firings() int { return int(rt.met.runCommits.Load()) }

// stopping reports whether the run must stop, latching the firing
// limit on the way.
func (rt *runtime) stopping() bool {
	if rt.firings() >= rt.opts.MaxFirings {
		rt.limit = true
	}
	return rt.halted || rt.limit || rt.err != nil
}

// next returns the strategy's pick among the unfired candidates, or
// nil when there is none. The pick comes from the agenda, which the
// first call builds by switching the matcher's change journal on.
func (rt *runtime) next() *match.Instantiation {
	if rt.agenda == nil {
		rt.agenda = &agenda{order: rt.opts.Strategy, fired: rt.fired, met: rt.met}
		rt.matcher.TrackChanges(true)
	}
	rt.agenda.drain(rt.matcher.ConflictSet())
	if e := rt.agenda.top(); e != nil {
		return e.In
	}
	return nil
}

// fire executes one selected instantiation serially — the act half of
// the Section 3.1 recognize–act cycle that Single and Session share:
// the optional Verify pre-check, the simulated rule cost, the actions
// and the commit. The commit's record is only staged: Single syncs
// after each fire, a Session at its ack boundary (Session.Sync). It
// returns the first error, including a storage failure latched in
// rt.err.
func (rt *runtime) fire(in *match.Instantiation) error {
	rt.fired[in.Key()] = in
	if rt.opts.Verify && !verifyActive(rt.store, in) {
		return fmt.Errorf("%w: %s selected while inactive", ErrInconsistent, in.Key())
	}
	if d := rt.opts.RuleDelay[in.Rule.Name]; d > 0 {
		rt.opts.Clock.Sleep(d)
	}
	tx := rt.store.Begin()
	halt, err := match.ExecuteActions(in, tx)
	if err != nil {
		tx.Abort()
		return err
	}
	if err := rt.commit(in, tx, 0, halt); err != nil {
		return err
	}
	return rt.err
}

// fail records the first run error.
func (rt *runtime) fail(err error) {
	if rt.err == nil {
		rt.err = err
	}
}

// commit finishes one executed firing: optional semantic verification,
// atomic application of the staged delta, storage append, incremental
// re-match, refraction bookkeeping, and the commit (and, on halt, the
// halt) trace events. A verify failure leaves the transaction unstaged
// so the caller can abort it; any other error has consumed it.
//
// The storage append only stages the record — it becomes durable at
// the next syncStorage, after which the parallel committer closes the
// firing's reply channel (ack after fsync). A commit whose record the
// backend refused is no commit: commit records the error and returns
// it before the matcher, refraction, counters or trace see the firing.
func (rt *runtime) commit(in *match.Instantiation, tx *wm.Txn, txn int64, halt bool) error {
	key := in.Key()
	if rt.opts.Verify && !verifyActive(rt.store, in) {
		return fmt.Errorf("%w: %s committed while inactive", ErrInconsistent, key)
	}
	applyStart := rt.opts.Clock.Now()
	delta, err := tx.Commit()
	if err != nil {
		return err
	}
	fps := fingerprints(in)
	if rt.opts.Storage != nil {
		if _, err := rt.opts.Storage.Append(&storage.Record{
			Rule: in.Rule.Name, Inst: key, WMEs: fps, Delta: delta,
		}); err != nil {
			rt.fail(err)
			return err
		}
		rt.smet.appends.Inc()
		rt.pendingAppends++
	}
	for _, w := range delta.Removes {
		rt.matcher.Remove(w)
	}
	for _, w := range delta.Adds {
		rt.matcher.Insert(w)
	}
	rt.refract(in, delta)
	rt.met.commitInc()
	rt.met.rule(in.Rule.Name).commits.Inc()
	rt.met.applyNS.ObserveDuration(rt.opts.Clock.Now().Sub(applyStart))
	rt.opts.Log.Append(trace.Event{Kind: trace.KindCommit, Rule: in.Rule.Name,
		Inst: key, Txn: txn, WMEs: fps})
	if halt {
		rt.halted = true
		rt.opts.Log.Append(trace.Event{Kind: trace.KindHalt, Rule: in.Rule.Name, Inst: key, Txn: txn})
	}
	return nil
}

// refract records that in fired. Its key names WME versions
// (rule|id@tag…) and a time tag is never issued twice, so the key can
// match again only while every version it names is live; once one is
// gone the entry can never block a firing and is dropped. When the
// firing's own delta removed one of its versions that happens at once.
// Otherwise a sweep drops the dead entries whenever the map reaches
// 2·liveAtSweep+64 entries, so the map never holds more than twice the
// live entries the last sweep kept plus 64, and the liveAtSweep+64
// insertions between sweeps pay for the next sweep's scan.
func (rt *runtime) refract(in *match.Instantiation, delta *wm.Delta) {
	key := in.Key()
	for _, w := range delta.Removes {
		if in.Uses(w) {
			delete(rt.fired, key)
			return
		}
	}
	rt.fired[key] = in
	if len(rt.fired) < 2*rt.liveAtSweep+64 {
		return
	}
	for k, f := range rt.fired {
		if rt.dead(f) {
			delete(rt.fired, k)
		}
	}
	rt.liveAtSweep = len(rt.fired)
}

// dead reports whether one of the WME versions in matched has left
// working memory, so its key can never match again.
func (rt *runtime) dead(in *match.Instantiation) bool {
	for _, w := range in.WMEs {
		if !rt.store.Live(w.ID, w.TimeTag) {
			return true
		}
	}
	return false
}

// syncStorage makes every staged record durable (one fsync covering
// the whole group) and then gives the backend a chance to checkpoint.
// No-op without a backend or staged records.
func (rt *runtime) syncStorage() {
	if rt.opts.Storage == nil || rt.pendingAppends == 0 {
		return
	}
	start := rt.opts.Clock.Now()
	err := rt.opts.Storage.Sync()
	rt.smet.fsyncNS.ObserveDuration(rt.opts.Clock.Now().Sub(start))
	rt.smet.fsyncs.Inc()
	rt.smet.groupSize.Observe(int64(rt.pendingAppends))
	rt.pendingAppends = 0
	if err != nil {
		rt.fail(err)
		return
	}
	rt.maybeCheckpoint()
}

// maybeCheckpoint triggers a size-based checkpoint on backends that
// support it. BeginCheckpoint seals the log boundary synchronously on
// this goroutine (the committer), and the snapshot is written from a
// clone of the store — in the background when free-running, inline
// under a deterministic scheduler so the controlled run stays a pure
// function of the policy. A background failure is sticky in the
// backend and surfaces from the next Sync or Close.
func (rt *runtime) maybeCheckpoint() {
	cp, ok := rt.opts.Storage.(storage.AutoCheckpointer)
	if !ok || !cp.CheckpointDue() {
		return
	}
	complete, err := cp.BeginCheckpoint()
	if err != nil {
		rt.fail(err)
		return
	}
	rt.smet.checkpoints.Inc()
	clone := rt.store.Clone()
	start := rt.opts.Clock.Now()
	run := func() {
		if complete(clone) == nil {
			rt.smet.checkpointNS.ObserveDuration(rt.opts.Clock.Now().Sub(start))
		}
	}
	if rt.opts.Sched != nil {
		run()
		return
	}
	go run()
}

// result assembles the run summary from the metric counters.
func (rt *runtime) result() Result {
	return Result{
		Firings:  int(rt.met.runCommits.Load()),
		Aborts:   int(rt.met.runAborts.Load()),
		Skips:    int(rt.met.runSkips.Load()),
		Cycles:   int(rt.met.runCycles.Load()),
		Halted:   rt.halted,
		LimitHit: rt.limit,
		Log:      rt.opts.Log,
		Store:    rt.store,
	}
}
