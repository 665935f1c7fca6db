package engine

import (
	"errors"
	"fmt"
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
// pipeline. Each dispatched instantiation fires as a transaction, in a
// task of its own: Rc locks for the condition, Ra/Wa locks at RHS
// start, effects staged into a private transaction. Executed firings
// are then submitted to a single committer — the run loop — which owns
// the matcher and the conflict set outright: it validates each
// submission, applies the delta atomically, re-matches incrementally,
// aborts conflicting Rc holders (rule (ii)), and dispatches from the
// same agenda the serial step picks from, so when fewer than Np firings
// may run than instantiations are ready, Options.Strategy decides which
// go first. The agenda follows the conflict set's change journal, so a
// commit costs O(|delta|) dispatch work rather than a rescan of the
// whole set.
//
// What admits a dispatch is the loop's policy: the lock manager here,
// the rule-interference relation under Static (Section 4.1). The loop
// is the same with and without Options.Sched: only the controller that
// runs the firings and parks the waits differs — the deterministic
// controller, or a pool of Np goroutines — so schedule exploration
// covers the code every free-running run executes.
type Parallel struct {
	rt *runtime
	// The admission policy: lm under the dynamic one, im under Static,
	// whose current wave is wave, dispatched up to next (static.go).
	lm   *lock.Manager
	im   *match.InterferenceMatrix
	wave []*agendaEntry
	next int

	// ctl runs every firing as a task and parks the committer and the
	// firings awaiting its verdict.
	ctl controller

	// stopping is the firings' fast-path view of rt.stopping().
	stopping atomic.Bool

	// Committer-owned dispatch state. The agenda holds the live
	// conflict-set members that are neither fired nor in flight, in
	// the strategy's order. inflight holds every dispatched key from
	// dispatch until it commits, is dropped, or re-enters the agenda
	// after an abort's backoff, so its size is the running firings plus
	// the armed backoff timers, which timers counts.
	agenda   *agenda
	inflight map[string]*agendaEntry
	timers   int

	// q carries the firings' and timers' events to the committer.
	q queue
}

// flight is what Parallel keeps on an agenda entry it dispatches. The
// entry leaves the heap while it flies, so the unlinked entry is the
// flight record, and it carries the key's abort count across a
// re-queue.
type flight struct {
	// retries counts the key's aborts; it sets the re-dispatch backoff.
	retries int
	// stale is Figure 4.2's re-evaluation as the firing reads it under
	// its Rc locks: after every commit the committer sets it to whether
	// the key has stopped being a live, unfired conflict-set member.
	stale atomic.Bool
	// txn is the firing's lock transaction, or 0 until it begins; the
	// AbortReevaluate policy finds an Rc victim's key by it.
	txn atomic.Int64
	// plans holds the buffers of the firing's lock plans, made by the
	// entry's first flight and rebuilt in the same capacity by the
	// next: a firing reads its plans only before it submits its
	// outcome, and only then may the committer recycle the entry. A
	// pointer, so that the entries of the serial engines' agendas,
	// which never fly, do not grow.
	plans *lockPlans
}

// lockPlans is the Rc plan and the Ra/Wa plan of a flight.
type lockPlans struct {
	rc  []lock.Resource
	rhs []rhsLock
}

// controller runs the committer's firings as tasks. Under Options.Sched
// it is controlled, which makes each firing a task of the deterministic
// controller; free-running it is a pool.
type controller interface {
	// fire runs the firing of f as a task.
	fire(f *agendaEntry)
	// Park blocks the calling task until ch is signalled (a buffered
	// send or close).
	Park(label string, ch chan struct{})
	// wait returns once every task fire started has returned.
	wait()
}

// controlled starts each firing as a task of a deterministic
// controller, whose Run waits for its tasks.
type controlled struct {
	sched.Controller
	e *Parallel
}

func (c controlled) fire(f *agendaEntry) {
	c.Go("fire:"+f.In.Rule.Name, func() { c.e.fire(f) })
}

func (controlled) wait() {}

// pool is the free-running controller: Np long-lived goroutines, started
// by a run's first firing and stopped by wait, fire the entries handed
// to them, and Park is a plain receive. Handing over the entry itself
// rather than a closure keeps a firing's start free of allocation.
type pool struct {
	e    *Parallel
	work chan *agendaEntry
	wg   sync.WaitGroup
}

func (p *pool) fire(f *agendaEntry) {
	if p.work == nil {
		p.work = make(chan *agendaEntry)
		p.wg.Add(p.e.rt.opts.Np)
		for range p.e.rt.opts.Np {
			go func() {
				defer p.wg.Done()
				for f := range p.work {
					p.e.fire(f)
				}
			}()
		}
	}
	p.work <- f
}

func (*pool) Park(_ string, ch chan struct{}) { <-ch }

func (p *pool) wait() {
	if p.work != nil {
		close(p.work)
		p.wg.Wait()
		p.work = nil
	}
}

// queue is the committer's event queue: firings and backoff timers push,
// the committer pops one event at a time. When pop finds it empty the
// committer parks on wake, and the next push signals it — exactly once,
// so the committer never parks on a stale signal, which under a
// deterministic controller would add a scheduling point.
type queue struct {
	mu     sync.Mutex
	events []pevent
	head   int
	idle   bool // pop found the queue empty; the next push signals wake
	wake   chan struct{}
}

// push appends ev, compacting the popped prefix away when the slice is
// full, and wakes an idle committer.
func (q *queue) push(ev pevent) {
	q.mu.Lock()
	if q.head > 0 && len(q.events) == cap(q.events) {
		n := copy(q.events, q.events[q.head:])
		clear(q.events[n:])
		q.events, q.head = q.events[:n], 0
	}
	q.events = append(q.events, ev)
	idle := q.idle
	q.idle = false
	q.mu.Unlock()
	if idle {
		select {
		case q.wake <- struct{}{}:
		default:
		}
	}
}

// pop returns the oldest event, or reports that there is none and marks
// the committer idle.
func (q *queue) pop() (pevent, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.events) {
		q.events, q.head = q.events[:0], 0
		q.idle = true
		return pevent{}, false
	}
	ev := q.events[q.head]
	q.events[q.head] = pevent{}
	q.head++
	return ev, true
}

// pevKind discriminates firing→committer messages.
type pevKind uint8

const (
	// evCommit carries an executed firing's staged effects; a dynamic
	// firing blocks on reply until the committer has resolved it (the
	// lock transaction must outlive the commit so RcVictims sees its
	// locks), and a wave member sends no reply channel.
	evCommit pevKind = iota
	// evAborted reports a firing-side abort (lock denial, victim kill
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
// order of Options.Strategy.
func NewParallel(p Program, scheme lock.Scheme, opts Options) (*Parallel, error) {
	e, err := newPipeline(p, opts)
	if err != nil {
		return nil, err
	}
	e.lm = lock.NewManagerPolicy(scheme, e.rt.opts.Deadlock)
	e.lm.SetMetrics(e.rt.opts.Metrics)
	e.lm.SetClock(e.rt.opts.Clock)
	e.lm.SetController(e.rt.opts.Sched)
	return e, nil
}

// newPipeline builds the committer loop without an admission policy:
// the runtime, the event queue, the agenda and the controller.
func newPipeline(p Program, opts Options) (*Parallel, error) {
	rt, err := newRuntime(p, opts)
	if err != nil {
		return nil, err
	}
	e := &Parallel{
		rt:       rt,
		inflight: make(map[string]*agendaEntry),
		q:        queue{wake: make(chan struct{}, 1)},
	}
	e.agenda = newAgenda(rt.opts.Strategy, func(k string) bool { return rt.fired[k] != nil || e.inflight[k] != nil }, rt.met)
	if rt.opts.Sched != nil {
		e.ctl = controlled{rt.opts.Sched, e}
	} else {
		e.ctl = &pool{e: e}
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
// action, an error, or the firing limit. Between two events it
// dispatches until Np firings run; with no event pending it parks until
// a firing or timer reports back. Under Options.Sched every blocking
// point goes through the controller, so the whole run is a pure
// function of its scheduling policy.
func (e *Parallel) Run() (Result, error) {
	rt := e.rt
	// Enabling change tracking journalled the initial membership, so
	// the first drain fills the agenda; everything after arrives from
	// commits.
	for {
		// rt.stopping latches, and so does e.stopping.
		if rt.stopping() {
			e.stopping.Store(true)
			for _, f := range e.wave[e.next:] {
				e.land(f) // a stopped run dispatches no more of the wave
			}
			e.wave = e.wave[:e.next]
		} else if e.im != nil {
			e.agenda.drain(rt.matcher.ConflictSet())
			e.dispatchWave()
		} else {
			// A drain that queued something counts as a cycle.
			if e.agenda.drain(rt.matcher.ConflictSet()) > 0 {
				rt.met.cycleInc()
			}
			// Keys waiting out an abort's backoff are in flight but do
			// not count against Np.
			for len(e.inflight)-e.timers < rt.opts.Np {
				f := e.agenda.top()
				if f == nil {
					break
				}
				e.agenda.unlink(f)
				e.inflight[f.Key()] = f
				f.txn.Store(0)
				e.ctl.fire(f)
			}
		}
		rt.met.dispatchQ.Set(int64(len(e.agenda.heap)))

		if ev, ok := e.q.pop(); ok {
			rt.met.submitQ.Add(-1)
			e.handleEvent(ev)
			continue
		}
		if len(e.inflight) == 0 {
			break
		}
		e.ctl.Park("committer idle", e.q.wake)
	}
	e.ctl.wait()
	rt.syncStorage()
	return rt.result(), rt.err
}

// live reports whether key is a conflict-set member that has not fired.
func (e *Parallel) live(key string) bool {
	return e.rt.matcher.ConflictSet().Contains(key) && e.rt.fired[key] == nil
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

// handleEvent applies one firing→committer event.
func (e *Parallel) handleEvent(ev pevent) {
	switch ev.kind {
	case evCommit:
		e.resolveCommit(ev)
	case evAborted:
		if ev.err != nil {
			e.rt.fail(ev.err)
		}
		e.noteAbort(ev.f)
	case evSkipped:
		e.rt.met.skipInc()
		e.land(ev.f)
	case evRequeue:
		e.timers--
		e.land(ev.f)
	}
}

// submit hands a firing's or timer's event to the committer.
func (e *Parallel) submit(ev pevent) {
	e.rt.met.submitQ.Add(1)
	e.q.push(ev)
}

// resolveCommit is the committer's half of a firing: validate the
// submission against the current conflict set and lock state, commit
// through the shared runtime, kill Rc victims, mark the flights the
// commit invalidated, fsync the commit, and reply.
//
// Every outcome closes the firing's reply channel. A successful commit
// closes it only after the fsync, so a firing never observes success
// before its commit is durable, and only after the stale flags are
// set, so a firing that takes Rc locks this commit held sees them. A
// wave member has no reply, victims or fsync of its own (dispatchWave),
// and admission promised it stays live: if not, the run fails.
func (e *Parallel) resolveCommit(ev pevent) {
	rt := e.rt
	in := ev.f.In
	if ev.reply != nil {
		defer close(ev.reply)
	}
	switch {
	case e.lm != nil && e.lm.Aborted(ev.txn):
		ev.wtx.Abort()
		e.logResolution(trace.KindAbort, in, ev.txn, "rc-wa victim")
		e.noteAbort(ev.f)
		return
	case rt.stopping():
		ev.wtx.Abort()
		e.logResolution(trace.KindSkip, in, ev.txn, "engine stopping")
		rt.met.skipInc()
		e.land(ev.f)
		return
	case !e.live(in.Key()):
		ev.wtx.Abort()
		if e.im != nil {
			rt.fail(fmt.Errorf("%w: wave member %s invalidated before commit", ErrInconsistent, in.Key()))
		}
		e.logResolution(trace.KindAbort, in, ev.txn, "invalidated before commit")
		e.dropAborted(ev.f)
		return
	}
	if err := rt.commit(in, ev.wtx, int64(ev.txn), ev.halt); err != nil {
		rt.fail(err)
		if errors.Is(err, ErrInconsistent) {
			ev.wtx.Abort()
			e.logResolution(trace.KindAbort, in, ev.txn, "verify failed")
		} else {
			e.logResolution(trace.KindAbort, in, ev.txn, "commit error")
		}
		e.dropAborted(ev.f)
		return
	}
	lat := rt.opts.Clock.Now().Sub(ev.start)
	rt.met.commitNS.ObserveDuration(lat)
	rt.met.rule(in.Rule.Name).commitNS.ObserveDuration(lat)
	e.land(ev.f)
	if e.im != nil {
		return
	}
	// Rule (ii): abort conflicting Rc holders — unless the reevaluate
	// policy finds their instantiation untouched by this commit.
	for _, victim := range e.lm.RcVictims(ev.txn) {
		if rt.opts.AbortPolicy == AbortReevaluate && e.spared(victim) {
			continue
		}
		e.lm.Abort(victim)
	}
	for k, f := range e.inflight {
		f.stale.Store(!e.live(k))
	}
	rt.syncStorage()
}

// spared reports whether the Rc victim's instantiation is still live,
// so AbortReevaluate lets it run on. A victim holds Rc locks, so its
// firing is in flight.
func (e *Parallel) spared(victim lock.TxnID) bool {
	for k, f := range e.inflight {
		if f.txn.Load() == int64(victim) {
			return e.live(k)
		}
	}
	return false
}

// noteAbort counts an abort and, if the instantiation is still live,
// arms a backoff timer that re-queues it — proportional to its abort
// count so productions that repeatedly deadlock against each other
// break lockstep, and without occupying a task while it waits. The
// key stays in flight until the timer fires.
func (e *Parallel) noteAbort(f *agendaEntry) {
	rt := e.rt
	if rt.stopping() || !e.live(f.Key()) {
		e.dropAborted(f)
		return
	}
	rt.met.abortInc()
	rt.met.rule(f.In.Rule.Name).aborts.Inc()
	f.retries++
	rt.met.retries.Inc()
	e.timers++
	d := min(time.Duration(f.retries)*500*time.Microsecond, 50*time.Millisecond)
	rt.opts.Clock.AfterFunc(d, func() {
		e.submit(pevent{kind: evRequeue, f: f})
	})
}

// dropAborted counts an abort and lands the flight without a retry.
func (e *Parallel) dropAborted(f *agendaEntry) {
	e.rt.met.abortInc()
	e.rt.met.rule(f.In.Rule.Name).aborts.Inc()
	e.land(f)
}

// logResolution records the committer's verdict on a submission.
func (e *Parallel) logResolution(kind trace.Kind, in *match.Instantiation, txn lock.TxnID, detail string) {
	e.rt.opts.Log.Append(trace.Event{Kind: kind, Rule: in.Rule.Name,
		Inst: in.Key(), Txn: int64(txn), Detail: detail})
}

// fire executes one dispatched instantiation — under the dynamic
// policy as a lock transaction — and submits the outcome to the
// committer. It reads the entry's instantiation once, at the start,
// and its stale flag under the Rc locks; once the outcome is submitted
// the committer may recycle the entry.
func (e *Parallel) fire(f *agendaEntry) {
	if e.im != nil {
		e.fireStatic(f)
		return
	}
	rt := e.rt
	in := f.In
	key := in.Key()
	txn := e.lm.Begin()
	f.txn.Store(int64(txn))
	// quit ends the firing before it reaches the committer.
	quit := func(kind trace.Kind, reason string, ev pevent) {
		rt.opts.Log.Append(trace.Event{Kind: kind, Rule: in.Rule.Name,
			Inst: key, Txn: int64(txn), Detail: reason})
		e.lm.End(txn)
		e.submit(ev)
	}

	// Phase 1: Rc locks for condition evaluation (Figure 4.2).
	if f.plans == nil {
		f.plans = new(lockPlans)
	}
	plans := f.plans
	plans.rc = rcResources(plans.rc, in)
	for _, res := range plans.rc {
		if err := e.lm.Acquire(txn, res, lock.Rc); err != nil {
			quit(trace.KindAbort, "rc: "+err.Error(), pevent{kind: evAborted, f: f})
			return
		}
	}

	// Condition re-evaluation under Rc locks: the instantiation may
	// have been invalidated by a commit since dispatch.
	if e.stopping.Load() || f.stale.Load() {
		quit(trace.KindSkip, "stale before execution", pevent{kind: evSkipped, f: f})
		return
	}

	rt.opts.Log.Append(trace.Event{Kind: trace.KindFire, Rule: in.Rule.Name, Inst: key, Txn: int64(txn)})
	start := rt.opts.Clock.Now()

	// Simulated condition-evaluation cost: Rc locks held, RHS locks
	// not yet requested — the Figure 4.3/4.4 window.
	if d := rt.opts.CondDelay[in.Rule.Name]; d > 0 {
		rt.opts.Clock.Sleep(d)
	}

	// Phase 2: all Ra and Wa locks at RHS start (Section 4.3).
	plans.rhs = rhsLocks(plans.rhs, in)
	for _, l := range plans.rhs {
		if err := e.lm.Acquire(txn, l.res, l.mode); err != nil {
			quit(trace.KindAbort, l.mode.String()+": "+err.Error(), pevent{kind: evAborted, f: f})
			return
		}
	}

	// Action execution (simulated cost, then staged effects).
	if d := rt.opts.RuleDelay[in.Rule.Name]; d > 0 {
		rt.opts.Clock.Sleep(d)
	}
	wtx := rt.store.Begin()
	halt, err := match.ExecuteActions(in, wtx)
	if err != nil {
		wtx.Abort()
		quit(trace.KindAbort, "action error", pevent{kind: evAborted, f: f, err: err})
		return
	}

	// Submit to the committer; hold the lock transaction open until it
	// answers so a commit's RcVictims scan still sees our locks.
	reply := make(chan struct{})
	e.submit(pevent{kind: evCommit, f: f, txn: txn, wtx: wtx, halt: halt, start: start, reply: reply})
	e.ctl.Park("await commit verdict", reply)
	e.lm.End(txn)
}
