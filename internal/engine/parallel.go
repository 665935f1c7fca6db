package engine

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
// holders (rule (ii)), and feeds newly activated instantiations back
// to the workers. Activation is event-driven via the conflict set's
// change journal, so a commit costs O(|delta|) dispatch work rather
// than a rescan of the whole conflict set.
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

	// active mirrors the unfired conflict-set keys for worker-side
	// staleness checks. Written only by the committer.
	activeMu sync.RWMutex
	active   map[string]bool

	// txnInst maps live transactions to their instantiation keys, for
	// the AbortReevaluate victim check.
	txnInst sync.Map // lock.TxnID → string

	// Committer-owned dispatch state: instantiations awaiting a worker,
	// keys with an outstanding dispatch lifecycle, and per-key abort
	// counts driving the re-dispatch backoff. Retry counts are cleared
	// when the key commits or leaves the conflict set, so neither map
	// outgrows the live working set.
	pending    []*match.Instantiation
	dispatched map[string]bool
	retries    map[string]int

	work   chan *match.Instantiation
	events chan pevent
	wg     sync.WaitGroup
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
	in    *match.Instantiation
	txn   lock.TxnID
	wtx   *wm.Txn
	halt  bool
	start time.Time
	err   error
	reply chan struct{}
}

// NewParallel builds a dynamic parallel engine using the given locking
// scheme (lock.Scheme2PL or lock.SchemeRcRaWa).
func NewParallel(p Program, scheme lock.Scheme, opts Options) (*Parallel, error) {
	rt, err := newRuntime(p, opts)
	if err != nil {
		return nil, err
	}
	e := &Parallel{
		rt:         rt,
		scheme:     scheme,
		lm:         lock.NewManagerPolicy(scheme, rt.opts.Deadlock),
		clock:      rt.opts.Clock,
		active:     make(map[string]bool),
		dispatched: make(map[string]bool),
		retries:    make(map[string]int),
	}
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
	e.work = make(chan *match.Instantiation)
	e.events = make(chan pevent, rt.opts.Np*2+4)
	for i := 0; i < rt.opts.Np; i++ {
		e.wg.Add(1)
		go e.workerLoop()
	}

	// Seed: enabling change tracking journalled the initial membership,
	// so the first refresh activates and enqueues the loaded conflict
	// set; everything after arrives incrementally from commits.
	e.refresh(rt.matcher.ConflictSet())

	inflight, timers := 0, 0
	for {
		if rt.stopping() {
			e.stopping.Store(true)
		}
		stop := e.stopping.Load()

		// Pick the next dispatchable instantiation, lazily pruning
		// entries whose keys fired or left the conflict set.
		var sendCh chan *match.Instantiation
		var next *match.Instantiation
		if !stop {
			next = e.nextDispatch()
		}
		if next != nil {
			sendCh = e.work
		}
		rt.met.dispatchQ.Set(int64(len(e.pending)))

		if sendCh == nil && inflight == 0 && timers == 0 && (stop || len(e.pending) == 0) {
			break
		}

		select {
		case ev := <-e.events:
			rt.met.submitQ.Add(-1)
			di, dt := e.handleEvent(ev)
			inflight += di
			timers += dt
		case sendCh <- next:
			e.pending = e.pending[1:]
			inflight++
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
	e.refresh(rt.matcher.ConflictSet())

	inflight, timers := 0, 0
	for {
		if rt.stopping() {
			e.stopping.Store(true)
		}
		stop := e.stopping.Load()

		// Dispatch up to Np tasks.
		if !stop {
			for inflight < rt.opts.Np {
				next := e.nextDispatch()
				if next == nil {
					break
				}
				e.pending = e.pending[1:]
				inflight++
				in := next
				e.ctl.Go("fire:"+in.Rule.Name, func() { e.fire(in) })
			}
		}
		rt.met.dispatchQ.Set(int64(len(e.pending)))

		if len(e.det.events) > 0 {
			ev := e.det.events[0]
			e.det.events = e.det.events[1:]
			rt.met.submitQ.Add(-1)
			di, dt := e.handleEvent(ev)
			inflight += di
			timers += dt
			continue
		}

		if inflight == 0 && timers == 0 && (stop || len(e.pending) == 0) {
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

// nextDispatch returns the head of the dispatch queue, first pruning
// entries whose keys fired or left the conflict set. The entry stays
// queued — the caller pops it once the hand-off commits.
func (e *Parallel) nextDispatch() *match.Instantiation {
	for len(e.pending) > 0 {
		in := e.pending[0]
		k := in.Key()
		if e.activeHas(k) && e.rt.fired[k] == nil {
			return in
		}
		delete(e.dispatched, k)
		e.pending = e.pending[1:]
	}
	return nil
}

// handleEvent applies one worker→committer event and returns the
// deltas to the in-flight firing and armed backoff-timer counts.
func (e *Parallel) handleEvent(ev pevent) (dInflight, dTimers int) {
	rt := e.rt
	switch ev.kind {
	case evCommit:
		dInflight = -1
		dTimers = e.resolveCommit(ev)
	case evAborted:
		dInflight = -1
		if ev.err != nil {
			rt.fail(ev.err)
		}
		dTimers = e.noteAbort(ev.in)
	case evSkipped:
		dInflight = -1
		rt.met.skipInc()
		delete(e.dispatched, ev.in.Key())
	case evRequeue:
		dTimers = -1
		k := ev.in.Key()
		if !rt.stopping() && e.activeHas(k) && rt.fired[k] == nil {
			e.pending = append(e.pending, ev.in)
		} else {
			delete(e.dispatched, k)
		}
	}
	return
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

// activeHas reports whether the key is an unfired conflict-set member.
func (e *Parallel) activeHas(key string) bool {
	e.activeMu.RLock()
	ok := e.active[key]
	e.activeMu.RUnlock()
	return ok
}

// refresh reconciles the active mirror with the conflict set after a
// commit (or at startup) and enqueues newly activated instantiations.
// Incremental matchers supply a change journal; a matcher that
// rebuilds the set (naive) journals the full membership, which is
// detected (no removals, additions equal to the set) and reconciled
// wholesale. Keys appearing as both added and removed are resolved by
// Contains.
func (e *Parallel) refresh(cs *match.ConflictSet) {
	rt := e.rt
	added, removed := cs.TakeChanges()
	// Batch size of this journal drain — the O(|delta|) dispatch cost a
	// commit pays instead of a conflict-set rescan.
	rt.met.journalBatch.Observe(int64(len(added) + len(removed)))
	// One matcher update can journal several activations, and their
	// relative order leaks matcher-internal map iteration; sort by key
	// so dispatch order — and with it every deterministic schedule — is
	// a function of the program alone.
	sort.Slice(added, func(i, j int) bool { return added[i].Key() < added[j].Key() })
	if len(removed) == 0 && len(added) == cs.Len() {
		rt.met.refreshSnapshot.Inc()
		// Snapshot reconcile: added holds the complete membership.
		act := make(map[string]bool, len(added))
		for _, in := range added {
			if k := in.Key(); rt.fired[k] == nil {
				act[k] = true
			}
		}
		e.activeMu.Lock()
		old := e.active
		e.active = act
		e.activeMu.Unlock()
		for k := range old {
			if !act[k] {
				delete(e.retries, k)
			}
		}
	} else {
		rt.met.refreshDelta.Inc()
		e.activeMu.Lock()
		for _, k := range removed {
			if !cs.Contains(k) {
				delete(e.active, k)
			}
		}
		for _, in := range added {
			if k := in.Key(); cs.Contains(k) && rt.fired[k] == nil {
				e.active[k] = true
			}
		}
		e.activeMu.Unlock()
		for _, k := range removed {
			if !cs.Contains(k) {
				delete(e.retries, k)
			}
		}
	}
	queued := 0
	for _, in := range added {
		k := in.Key()
		if rt.fired[k] == nil && !e.dispatched[k] && e.activeHas(k) {
			e.dispatched[k] = true
			e.pending = append(e.pending, in)
			queued++
		}
	}
	if queued > 0 {
		rt.met.cycleInc()
	}
}

// resolveCommit is the committer's half of a firing: validate the
// submission against the current conflict set and lock state, commit
// through the shared runtime, kill Rc victims, fsync the commit, and
// activate the instantiations the delta enabled. Returns the number of
// backoff timers armed.
//
// Every outcome closes the firing's reply channel. A successful commit
// closes it only after the fsync, so a firing never observes success
// before its commit is durable, and the conflict-set refresh follows
// before the committer takes its next event.
func (e *Parallel) resolveCommit(ev pevent) (timers int) {
	rt := e.rt
	key := ev.in.Key()
	switch {
	case e.lm.Aborted(ev.txn):
		ev.wtx.Abort()
		e.logResolution(trace.KindAbort, ev, "rc-wa victim")
		timers = e.noteAbort(ev.in)
	case rt.stopping():
		ev.wtx.Abort()
		e.logResolution(trace.KindSkip, ev, "engine stopping")
		rt.met.skipInc()
		delete(e.dispatched, key)
	default:
		cs := rt.matcher.ConflictSet()
		if !cs.Contains(key) || rt.fired[key] != nil {
			ev.wtx.Abort()
			e.logResolution(trace.KindAbort, ev, "invalidated before commit")
			rt.met.abortInc()
			rt.met.rule(ev.in.Rule.Name).aborts.Inc()
			e.deactivate(key)
			delete(e.dispatched, key)
			delete(e.retries, key)
			break
		}
		if err := rt.commit(ev.in, ev.wtx, int64(ev.txn), ev.halt); err != nil {
			rt.fail(err)
			if errors.Is(err, ErrInconsistent) {
				ev.wtx.Abort()
				e.logResolution(trace.KindAbort, ev, "verify failed")
			} else {
				e.logResolution(trace.KindAbort, ev, "commit error")
			}
			rt.met.abortInc()
			rt.met.rule(ev.in.Rule.Name).aborts.Inc()
			delete(e.dispatched, key)
			break
		}
		lat := e.clock.Now().Sub(ev.start)
		rt.met.commitNS.ObserveDuration(lat)
		rt.met.rule(ev.in.Rule.Name).commitNS.ObserveDuration(lat)
		e.deactivate(key)
		delete(e.dispatched, key)
		delete(e.retries, key)
		cs = rt.matcher.ConflictSet() // post-commit state
		// Rule (ii): abort conflicting Rc holders — unless the
		// reevaluate policy finds their instantiation untouched by this
		// commit.
		for _, victim := range e.lm.RcVictims(ev.txn) {
			if rt.opts.AbortPolicy == AbortReevaluate {
				if vk, ok := e.txnInst.Load(victim); ok {
					if k := vk.(string); cs.Contains(k) && rt.fired[k] == nil {
						continue
					}
				}
			}
			e.lm.Abort(victim)
		}
		rt.syncStorage()
		close(ev.reply)
		e.refresh(rt.matcher.ConflictSet())
		return timers
	}
	close(ev.reply)
	return timers
}

// noteAbort counts an abort and, if the instantiation is still live,
// arms a backoff timer that re-enqueues it — proportional to its abort
// count so productions that repeatedly deadlock against each other
// break lockstep, and without occupying a worker while it waits.
// Returns 1 if a timer was armed.
func (e *Parallel) noteAbort(in *match.Instantiation) int {
	rt := e.rt
	rt.met.abortInc()
	rt.met.rule(in.Rule.Name).aborts.Inc()
	k := in.Key()
	e.retries[k]++
	if rt.stopping() || rt.fired[k] != nil || !e.activeHas(k) {
		delete(e.dispatched, k)
		return 0
	}
	rt.met.retries.Inc()
	d := time.Duration(e.retries[k]) * 500 * time.Microsecond
	if max := 50 * time.Millisecond; d > max {
		d = max
	}
	e.clock.AfterFunc(d, func() {
		e.submit(pevent{kind: evRequeue, in: in})
	})
	return 1
}

// deactivate removes a key from the workers' active mirror.
func (e *Parallel) deactivate(key string) {
	e.activeMu.Lock()
	delete(e.active, key)
	e.activeMu.Unlock()
}

// logResolution records the committer's verdict on a submission.
func (e *Parallel) logResolution(kind trace.Kind, ev pevent, detail string) {
	e.rt.opts.Log.Append(trace.Event{Kind: kind, Rule: ev.in.Rule.Name,
		Inst: ev.in.Key(), Txn: int64(ev.txn), Detail: detail})
}

// workerLoop fires instantiations from the work channel until it
// closes.
func (e *Parallel) workerLoop() {
	defer e.wg.Done()
	for in := range e.work {
		e.fire(in)
	}
}

// fire executes one instantiation as a transaction and submits the
// outcome to the committer.
func (e *Parallel) fire(in *match.Instantiation) {
	rt := e.rt
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
		e.submit(pevent{kind: evAborted, in: in, err: err})
	}
	skip := func(reason string) {
		rt.opts.Log.Append(trace.Event{Kind: trace.KindSkip, Rule: in.Rule.Name,
			Inst: key, Txn: int64(txn), Detail: reason})
		end()
		e.submit(pevent{kind: evSkipped, in: in})
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
	if e.stopping.Load() || !e.activeHas(key) {
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
	e.submit(pevent{kind: evCommit, in: in, txn: txn, wtx: wtx, halt: halt, start: start, reply: reply})
	e.await(reply)
	end()
}
