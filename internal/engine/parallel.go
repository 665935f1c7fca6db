package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"pdps/internal/cr"
	"pdps/internal/lock"
	"pdps/internal/match"
	"pdps/internal/obs"
	"pdps/internal/sched"
	"pdps/internal/trace"
	"pdps/internal/wm"
)

// Parallel is the multiple execution thread mechanism with the dynamic
// (locking) approach of Sections 4.2–4.3, organised as a commit
// pipeline. A pool of Np workers fires instantiations as transactions:
// Rc locks for the condition, Ra/Wa locks at RHS start, effects staged
// into a private transaction. Executed firings are then submitted to a
// single committer — the run loop — which owns the matcher and the
// conflict set outright: it validates each submission, applies the
// delta atomically, re-matches incrementally, aborts conflicting Rc
// holders (rule (ii)), and dispatches from the same agenda the serial
// step picks from, so when workers are fewer than ready
// instantiations, Options.Strategy decides which go first. The agenda
// follows the conflict set's change journal, so a commit costs
// O(|delta|) dispatch work rather than a rescan of the whole set.
type Parallel struct {
	rt     *runtime
	scheme lock.Scheme
	lm     *lock.Manager

	// clock supplies backoff timers, simulated costs and latency
	// timestamps (Options.Clock; the controller itself under Sched).
	clock sched.Clock
	// ctl, when non-nil, is the deterministic scheduling controller:
	// Run switches to the controlled pipeline (runDet) and every
	// concurrent activity becomes a controlled task.
	ctl sched.Controller
	// det holds the controlled pipeline's event queue; nil when
	// free-running.
	det *detState

	// stopping is the workers' fast-path view of rt.stopping().
	stopping atomic.Bool

	// txnInst maps live transactions to their instantiation keys, for
	// the AbortReevaluate victim check.
	txnInst sync.Map // lock.TxnID → string

	// Committer-owned dispatch state. The agenda holds the live
	// conflict-set members that are neither fired nor in flight, in
	// the strategy's order. inflight holds every dispatched key from
	// dispatch until it commits, is dropped, or re-enters the agenda
	// after an abort's backoff, so its size is the running firings plus
	// the armed backoff timers.
	agenda   *agenda
	inflight map[string]*agendaEntry
	// cs is the conflict set as of the last commit, or nil until the
	// committer next needs it. Working memory changes only at a commit,
	// so a matcher that rebuilds the set on every call (naive) is asked
	// once per commit, not once per loop turn and live check.
	cs *match.ConflictSet

	work   chan *agendaEntry
	events chan pevent
	wg     sync.WaitGroup
}

// flight is what Parallel keeps on an agenda entry it dispatches. The
// entry leaves the heap while it flies, so the unlinked entry is the
// flight record, and it carries the key's abort count across a
// re-queue.
type flight struct {
	// retries counts the key's aborts; it sets the re-dispatch backoff.
	retries int
	// stale is Figure 4.2's re-evaluation as the worker reads it under
	// its Rc locks: after every commit the committer sets it to whether
	// the key has stopped being a live, unfired conflict-set member.
	stale atomic.Bool
}

// detState is the controlled pipeline's committer queue: a plain slice
// plus a wake channel, safe because the controller runs exactly one
// task at a time (token passing provides the happens-before edges).
type detState struct {
	events []pevent
	wake   chan struct{} // non-nil while the committer is parked idle
}

// signalCh delivers a non-blocking wakeup on a one-slot channel.
func signalCh(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// pevKind discriminates worker→committer messages.
type pevKind uint8

const (
	// evCommit carries an executed firing's staged effects; the worker
	// blocks on reply until the committer has resolved it (the lock
	// transaction must outlive the commit so RcVictims sees its locks).
	evCommit pevKind = iota
	// evAborted reports a worker-side abort (lock denial, victim kill
	// or action error); the transaction is already ended.
	evAborted
	// evSkipped reports a stale instantiation dropped before execution.
	evSkipped
	// evRequeue is a backoff timer expiry: the instantiation may be
	// dispatched again.
	evRequeue
)

// pevent is one message on the committer's event queue.
type pevent struct {
	kind  pevKind
	f     *agendaEntry
	txn   lock.TxnID
	wtx   *wm.Txn
	halt  bool
	start time.Time
	err   error
	reply chan struct{}
}

// NewParallel builds a dynamic parallel engine using the given locking
// scheme (lock.Scheme2PL or lock.SchemeRcRaWa). It dispatches in the
// order of Options.Strategy, or FIFO's when the strategy has no total
// order (Random).
func NewParallel(p Program, scheme lock.Scheme, opts Options) (*Parallel, error) {
	rt, err := newRuntime(p, opts)
	if err != nil {
		return nil, err
	}
	e := &Parallel{
		rt:       rt,
		scheme:   scheme,
		lm:       lock.NewManagerPolicy(scheme, rt.opts.Deadlock),
		clock:    rt.opts.Clock,
		inflight: make(map[string]*agendaEntry),
	}
	order, ok := rt.opts.Strategy.(cr.Ordered)
	if !ok {
		order = cr.FIFO{}
	}
	e.agenda = newAgenda(order, func(k string) bool { return rt.fired[k] != nil || e.inflight[k] != nil }, rt.met)
	e.lm.SetMetrics(rt.opts.Metrics)
	e.lm.SetClock(rt.opts.Clock)
	if rt.opts.Sched != nil {
		e.ctl = rt.opts.Sched
		e.lm.SetController(e.ctl)
	}
	rt.matcher.TrackChanges(true)
	return e, nil
}

// Metrics returns the engine's metrics registry. Snapshots taken while
// Run is in flight are race-free; per-series values are atomic.
func (e *Parallel) Metrics() *obs.Registry { return e.rt.opts.Metrics }

// Store exposes the engine's working memory.
func (e *Parallel) Store() *wm.Store { return e.rt.store }

// Run drives the pipeline until quiescence (no dispatchable
// instantiation, no in-flight firing, no armed backoff timer), a halt
// action, an error, or the firing limit.
func (e *Parallel) Run() (Result, error) {
	if e.ctl != nil {
		return e.runDet()
	}
	rt := e.rt
	e.work = make(chan *agendaEntry)
	e.events = make(chan pevent, rt.opts.Np*2+4)
	for i := 0; i < rt.opts.Np; i++ {
		e.wg.Add(1)
		go e.workerLoop()
	}

	// Enabling change tracking journalled the initial membership, so
	// the first drain fills the agenda; everything after arrives from
	// commits.
	for {
		if rt.stopping() {
			e.stopping.Store(true)
		}
		var sendCh chan *agendaEntry
		var top *agendaEntry
		if !e.stopping.Load() {
			e.drain()
			top = e.agenda.top()
		}
		if top != nil {
			sendCh = e.work
		}
		rt.met.dispatchQ.Set(int64(len(e.agenda.heap)))

		if top == nil && len(e.inflight) == 0 {
			break
		}

		select {
		case ev := <-e.events:
			rt.met.submitQ.Add(-1)
			e.handleEvent(ev)
		case sendCh <- top:
			e.dispatch(top)
		}
	}

	close(e.work)
	e.wg.Wait()
	return rt.result(), rt.err
}

// runDet is Run under a deterministic controller: the same commit
// pipeline, but each firing runs as its own controlled task instead of
// on a worker pool, and the committer drains an event slice instead of
// a channel — the controller serialises every access, and all blocking
// (committer idle, worker awaiting a commit verdict, lock waits,
// backoff timers) goes through the controller so the whole run is a
// pure function of the scheduling policy.
func (e *Parallel) runDet() (Result, error) {
	rt := e.rt
	e.det = &detState{}

	timers := 0
	for {
		if rt.stopping() {
			e.stopping.Store(true)
		}

		// Dispatch until Np firings run.
		if !e.stopping.Load() {
			e.drain()
			for len(e.inflight)-timers < rt.opts.Np {
				top := e.agenda.top()
				if top == nil {
					break
				}
				e.dispatch(top)
				e.ctl.Go("fire:"+top.In.Rule.Name, func() { e.fire(top) })
			}
		}
		rt.met.dispatchQ.Set(int64(len(e.agenda.heap)))

		if len(e.det.events) > 0 {
			ev := e.det.events[0]
			e.det.events = e.det.events[1:]
			rt.met.submitQ.Add(-1)
			timers += e.handleEvent(ev)
			continue
		}

		if len(e.inflight) == 0 {
			break
		}

		// Nothing to do until a task or timer reports back.
		ch := make(chan struct{}, 1)
		e.det.wake = ch
		e.ctl.Park("committer idle", ch)
		e.det.wake = nil
	}
	return rt.result(), rt.err
}

// drain applies the conflict set's change journal to the agenda; a
// drain that queued something counts as a cycle.
func (e *Parallel) drain() {
	if e.agenda.drain(e.conflictSet()) > 0 {
		e.rt.met.cycleInc()
	}
}

// dispatch moves f out of the agenda and into flight.
func (e *Parallel) dispatch(f *agendaEntry) {
	e.agenda.unlink(f)
	e.inflight[f.Key()] = f
}

// conflictSet returns the matcher's conflict set, asking the matcher
// only on the first call after a commit.
func (e *Parallel) conflictSet() *match.ConflictSet {
	if e.cs == nil {
		e.cs = e.rt.matcher.ConflictSet()
	}
	return e.cs
}

// live reports whether key is a conflict-set member that has not fired.
func (e *Parallel) live(key string) bool {
	return e.conflictSet().Contains(key) && e.rt.fired[key] == nil
}

// land ends f's flight. The entry goes back on the agenda if the run
// goes on and its key is still live — after an abort's backoff, or
// because the key left the set and re-entered while in flight — and is
// recycled otherwise. Only a flight has its stale flag set, so an entry
// on the agenda or the free list always has it clear.
func (e *Parallel) land(f *agendaEntry) {
	k := f.Key()
	delete(e.inflight, k)
	f.stale.Store(false)
	if !e.rt.stopping() && e.live(k) {
		e.agenda.link(f)
		return
	}
	e.agenda.release(f)
}

// handleEvent applies one worker→committer event and returns the
// change in armed backoff timers.
func (e *Parallel) handleEvent(ev pevent) (dTimers int) {
	rt := e.rt
	switch ev.kind {
	case evCommit:
		return e.resolveCommit(ev)
	case evAborted:
		if ev.err != nil {
			rt.fail(ev.err)
		}
		return e.noteAbort(ev.f)
	case evSkipped:
		rt.met.skipInc()
		e.land(ev.f)
	case evRequeue:
		e.land(ev.f)
		return -1
	}
	return 0
}

// submit hands a worker-side event to the committer.
func (e *Parallel) submit(ev pevent) {
	e.rt.met.submitQ.Add(1)
	if e.det != nil {
		e.det.events = append(e.det.events, ev)
		if e.det.wake != nil {
			signalCh(e.det.wake)
		}
		return
	}
	e.events <- ev
}

// await blocks until the committer closes the reply channel.
func (e *Parallel) await(reply chan struct{}) {
	if e.ctl != nil {
		e.ctl.Park("await commit verdict", reply)
		return
	}
	<-reply
}

// resolveCommit is the committer's half of a firing: validate the
// submission against the current conflict set and lock state, commit
// through the shared runtime, kill Rc victims, mark the flights the
// commit invalidated, fsync the commit, and reply. Returns the number
// of backoff timers armed.
//
// Every outcome closes the firing's reply channel. A successful commit
// closes it only after the fsync, so a firing never observes success
// before its commit is durable, and only after the stale flags are
// set, so a worker that takes Rc locks this commit held sees them.
func (e *Parallel) resolveCommit(ev pevent) (timers int) {
	rt := e.rt
	in := ev.f.In
	switch {
	case e.lm.Aborted(ev.txn):
		ev.wtx.Abort()
		e.logResolution(trace.KindAbort, in, ev.txn, "rc-wa victim")
		timers = e.noteAbort(ev.f)
	case rt.stopping():
		ev.wtx.Abort()
		e.logResolution(trace.KindSkip, in, ev.txn, "engine stopping")
		rt.met.skipInc()
		e.land(ev.f)
	default:
		if !e.live(in.Key()) {
			ev.wtx.Abort()
			e.logResolution(trace.KindAbort, in, ev.txn, "invalidated before commit")
			rt.met.abortInc()
			rt.met.rule(in.Rule.Name).aborts.Inc()
			e.land(ev.f)
			break
		}
		if err := rt.commit(in, ev.wtx, int64(ev.txn), ev.halt); err != nil {
			rt.fail(err)
			if errors.Is(err, ErrInconsistent) {
				ev.wtx.Abort()
				e.logResolution(trace.KindAbort, in, ev.txn, "verify failed")
			} else {
				e.logResolution(trace.KindAbort, in, ev.txn, "commit error")
			}
			rt.met.abortInc()
			rt.met.rule(in.Rule.Name).aborts.Inc()
			e.land(ev.f)
			break
		}
		e.cs = nil // the commit changed working memory
		lat := e.clock.Now().Sub(ev.start)
		rt.met.commitNS.ObserveDuration(lat)
		rt.met.rule(in.Rule.Name).commitNS.ObserveDuration(lat)
		e.land(ev.f)
		// Rule (ii): abort conflicting Rc holders — unless the
		// reevaluate policy finds their instantiation untouched by this
		// commit.
		for _, victim := range e.lm.RcVictims(ev.txn) {
			if rt.opts.AbortPolicy == AbortReevaluate {
				if vk, ok := e.txnInst.Load(victim); ok && e.live(vk.(string)) {
					continue
				}
			}
			e.lm.Abort(victim)
		}
		for k, f := range e.inflight {
			f.stale.Store(!e.live(k))
		}
		rt.syncStorage()
		close(ev.reply)
		return timers
	}
	close(ev.reply)
	return timers
}

// noteAbort counts an abort and, if the instantiation is still live,
// arms a backoff timer that re-queues it — proportional to its abort
// count so productions that repeatedly deadlock against each other
// break lockstep, and without occupying a worker while it waits. The
// key stays in flight until the timer fires. Returns 1 if a timer was
// armed.
func (e *Parallel) noteAbort(f *agendaEntry) int {
	rt := e.rt
	in := f.In
	rt.met.abortInc()
	rt.met.rule(in.Rule.Name).aborts.Inc()
	if rt.stopping() || !e.live(in.Key()) {
		e.land(f)
		return 0
	}
	f.retries++
	rt.met.retries.Inc()
	d := time.Duration(f.retries) * 500 * time.Microsecond
	if max := 50 * time.Millisecond; d > max {
		d = max
	}
	e.clock.AfterFunc(d, func() {
		e.submit(pevent{kind: evRequeue, f: f})
	})
	return 1
}

// logResolution records the committer's verdict on a submission.
func (e *Parallel) logResolution(kind trace.Kind, in *match.Instantiation, txn lock.TxnID, detail string) {
	e.rt.opts.Log.Append(trace.Event{Kind: kind, Rule: in.Rule.Name,
		Inst: in.Key(), Txn: int64(txn), Detail: detail})
}

// workerLoop fires instantiations from the work channel until it
// closes.
func (e *Parallel) workerLoop() {
	defer e.wg.Done()
	for f := range e.work {
		e.fire(f)
	}
}

// fire executes one dispatched instantiation as a transaction and
// submits the outcome to the committer. It reads the entry's
// instantiation once, at the start, and its stale flag under the Rc
// locks; once the outcome is submitted the committer may recycle the
// entry.
func (e *Parallel) fire(f *agendaEntry) {
	rt := e.rt
	in := f.In
	key := in.Key()
	txn := e.lm.Begin()
	e.txnInst.Store(txn, key)
	end := func() {
		e.lm.End(txn)
		e.txnInst.Delete(txn)
	}
	abort := func(reason string, err error) {
		rt.opts.Log.Append(trace.Event{Kind: trace.KindAbort, Rule: in.Rule.Name,
			Inst: key, Txn: int64(txn), Detail: reason})
		end()
		e.submit(pevent{kind: evAborted, f: f, err: err})
	}
	skip := func(reason string) {
		rt.opts.Log.Append(trace.Event{Kind: trace.KindSkip, Rule: in.Rule.Name,
			Inst: key, Txn: int64(txn), Detail: reason})
		end()
		e.submit(pevent{kind: evSkipped, f: f})
	}

	// Phase 1: Rc locks for condition evaluation (Figure 4.2).
	for _, res := range rcResources(in) {
		if err := e.lm.Acquire(txn, res, lock.Rc); err != nil {
			abort("rc: "+err.Error(), nil)
			return
		}
	}

	// Condition re-evaluation under Rc locks: the instantiation may
	// have been invalidated by a commit since dispatch.
	if e.stopping.Load() || f.stale.Load() {
		skip("stale before execution")
		return
	}

	rt.opts.Log.Append(trace.Event{Kind: trace.KindFire, Rule: in.Rule.Name, Inst: key, Txn: int64(txn)})
	start := e.clock.Now()

	// Simulated condition-evaluation cost: Rc locks held, RHS locks
	// not yet requested — the Figure 4.3/4.4 window.
	if d := rt.opts.CondDelay[in.Rule.Name]; d > 0 {
		e.clock.Sleep(d)
	}

	// Phase 2: all Ra and Wa locks at RHS start (Section 4.3).
	for _, l := range rhsLocks(in) {
		if err := e.lm.Acquire(txn, l.res, l.mode); err != nil {
			abort(l.mode.String()+": "+err.Error(), nil)
			return
		}
	}

	// Action execution (simulated cost, then staged effects).
	if d := rt.opts.RuleDelay[in.Rule.Name]; d > 0 {
		e.clock.Sleep(d)
	}
	wtx := rt.store.Begin()
	halt, err := match.ExecuteActions(in, wtx)
	if err != nil {
		wtx.Abort()
		abort("action error", err)
		return
	}

	// Submit to the committer; hold the lock transaction open until it
	// answers so a commit's RcVictims scan still sees our locks.
	reply := make(chan struct{})
	e.submit(pevent{kind: evCommit, f: f, txn: txn, wtx: wtx, halt: halt, start: start, reply: reply})
	e.await(reply)
	end()
}
