package sched

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Controller is the scheduling seam the engines program against. A
// Controller is also a Clock, so installing one replaces both the
// engine's timing and its goroutine scheduling.
//
// Under a Controller every concurrent activity of the engine must be
// started with Go rather than the go statement, and must reach a
// Yield, Park, Sleep or exit in bounded work; the controller runs
// exactly one task at a time, so tasks may not block on anything the
// controller cannot see.
type Controller interface {
	Clock
	// Go starts body as a controlled task. The task does not run
	// until the controller schedules it.
	Go(name string, body func())
	// Yield marks a scheduling point: the controller may switch to
	// any runnable task before the call returns.
	Yield(label string)
	// Park blocks the calling task until ch is signalled (a buffered
	// send or close). The signal may arrive before or after parking.
	Park(label string, ch chan struct{})
}

// ErrBudget reports that a run exceeded its scheduling-decision
// budget (MaxSteps) — in fuzzing, the analogue of a timeout.
var ErrBudget = errors.New("sched: scheduling-decision budget exceeded")

// ErrPolicyAbort reports that the policy asked to abort the run by
// returning a negative index from Pick. The Stream policy uses it to
// unwind a replica whose schedule feed ended or diverged without
// panicking through the controller.
var ErrPolicyAbort = errors.New("sched: policy aborted the run")

// StallError reports that no task was runnable and no timer pending:
// the controlled system deadlocked outside the lock manager's sight.
type StallError struct{ Dump string }

func (e *StallError) Error() string {
	return "sched: all tasks blocked with no pending timer\n" + e.Dump
}

type taskState uint8

const (
	stReady taskState = iota
	stRunning
	stParked
	stSleeping
	stDone
)

func (s taskState) String() string {
	switch s {
	case stReady:
		return "ready"
	case stRunning:
		return "running"
	case stParked:
		return "parked"
	case stSleeping:
		return "sleeping"
	default:
		return "done"
	}
}

type task struct {
	id    int
	name  string
	state taskState
	// grant is the task's baton: a one-slot channel the scheduler
	// sends on to resume the task. Token passing through per-task
	// channels gives the race detector a happens-before edge between
	// consecutive tasks, so controlled code shares state without
	// extra locking.
	grant  chan struct{}
	parkCh chan struct{} // channel being waited on while parked
	label  string        // where the task blocked, for diagnostics
	wakeAt time.Duration // virtual deadline while sleeping
	body   func()
}

type vtimer struct {
	d       *Det
	name    string
	when    time.Duration
	seq     int
	f       func()
	stopped bool
	fired   bool
}

// Stop cancels the timer if it has not fired.
func (tm *vtimer) Stop() bool {
	tm.d.mu.Lock()
	defer tm.d.mu.Unlock()
	if tm.fired || tm.stopped {
		return false
	}
	tm.stopped = true
	return true
}

// cancelPanic unwinds a controlled task during cancellation; the task
// wrapper recovers it.
type cancelPanic struct{}

// Det is the deterministic cooperative controller. It multiplexes all
// controlled tasks onto a single logical thread: exactly one task runs
// at a time, and at every point where two or more tasks could run, the
// Policy picks. Time is virtual — Sleep and AfterFunc deadlines are
// ordered on a logical clock that only advances when nothing is
// runnable — so a run's interleaving is a pure function of the policy,
// and the recorded Choices replay it exactly.
//
// A Det is single-use: make a new one per Run.
type Det struct {
	// MaxSteps bounds the number of scheduling decisions before the
	// run is cancelled with ErrBudget. Zero means no bound. Set it
	// before Run.
	MaxSteps int

	// OnChoice, when set before Run, observes every recorded decision
	// as it is made — the export seam replication's primary streams
	// from. It is invoked with the controller's lock held, so the
	// callback must not call back into the controller; forwarding the
	// choice to an independent structure (a mutex-guarded log) is safe.
	OnChoice func(Choice)

	policy Policy

	mu        sync.Mutex
	tasks     []*task
	cur       *task
	live      int
	now       time.Duration
	timers    []*vtimer
	timerSeq  int
	steps     int
	choices   []Choice
	cancelled bool
	failure   error
	started   bool
	done      chan struct{}
}

// epoch anchors the virtual clock; Now returns epoch + virtual time.
var epoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// NewDet returns a controller driven by the policy.
func NewDet(p Policy) *Det { return &Det{policy: p} }

// Run executes root as the first controlled task and blocks until
// every controlled task has exited. It returns nil on a clean run,
// ErrBudget if MaxSteps was exceeded, or a *StallError if the system
// blocked with no way forward. Run's caller is not a controlled task
// and must not touch controlled state while Run is in flight.
func (d *Det) Run(root func()) error {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		panic("sched: Det is single-use; make a new one per Run")
	}
	d.started = true
	d.done = make(chan struct{})
	t := d.spawnLocked("root", root)
	t.state = stRunning
	d.cur = t
	d.mu.Unlock()
	t.grant <- struct{}{}
	<-d.done
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failure
}

// Choices returns the recorded scheduling decisions of the run.
func (d *Det) Choices() []Choice {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Choice, len(d.choices))
	copy(out, d.choices)
	return out
}

func (d *Det) spawnLocked(name string, body func()) *task {
	t := &task{
		id:    len(d.tasks),
		name:  name,
		state: stReady,
		grant: make(chan struct{}, 1),
		body:  body,
	}
	d.tasks = append(d.tasks, t)
	d.live++
	go d.taskMain(t)
	return t
}

func (d *Det) taskMain(t *task) {
	<-t.grant
	if d.isCancelled() {
		d.exit(t)
		return
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(cancelPanic); !ok {
				// Real panic in controlled code: surface it on the
				// Run caller after releasing the rest of the system.
				d.mu.Lock()
				d.cancelLocked(fmt.Errorf("sched: task %q panicked: %v", t.name, r))
				d.mu.Unlock()
			}
		}
		d.exit(t)
	}()
	t.body()
}

func (d *Det) exit(t *task) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t.state = stDone
	d.live--
	if !d.cancelled && (d.live > 0 || d.hasTimersLocked()) {
		// pickLocked may fire due timers, spawning fresh tasks even
		// when this was the last live one.
		if next := d.pickLocked(); next != nil {
			d.grantLocked(next)
			return
		}
	}
	if d.live == 0 {
		close(d.done)
	}
}

func (d *Det) hasTimersLocked() bool {
	for _, tm := range d.timers {
		if !tm.stopped {
			return true
		}
	}
	return false
}

func (d *Det) isCancelled() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cancelled
}

// cancelLocked aborts the run: every non-done task is granted so it
// can observe cancellation and unwind (blocked tasks wake from their
// grant channel; tasks inside body panic with cancelPanic at their
// next scheduling point).
func (d *Det) cancelLocked(err error) {
	if d.cancelled {
		return
	}
	d.cancelled = true
	if d.failure == nil {
		d.failure = err
	}
	for _, t := range d.tasks {
		if t.state != stDone {
			t.state = stReady
			select {
			case t.grant <- struct{}{}:
			default:
			}
		}
	}
}

// grantLocked hands the baton to next.
func (d *Det) grantLocked(next *task) {
	next.state = stRunning
	d.cur = next
	next.grant <- struct{}{}
}

// reschedule parks the current task t (whose new state the caller has
// set) and blocks until the scheduler hands the baton back. Called
// with d.mu held; returns with d.mu released.
func (d *Det) reschedule(t *task) {
	next := d.pickLocked()
	if next == t {
		t.state = stRunning
		d.cur = t
		d.mu.Unlock()
		return
	}
	if next != nil {
		d.grantLocked(next)
	}
	d.mu.Unlock()
	<-t.grant
	if d.isCancelled() {
		panic(cancelPanic{})
	}
}

// pickLocked chooses the next task to run: it probes parked channels,
// advances virtual time past sleepers and timers when nothing is
// runnable, and consults the policy at genuine branch points. It
// returns nil when the run has been cancelled (including cancellation
// it triggers itself on stall or budget exhaustion).
func (d *Det) pickLocked() *task {
	for {
		if d.cancelled {
			return nil
		}
		var ready []*task
		for _, t := range d.tasks {
			switch t.state {
			case stReady:
				ready = append(ready, t)
			case stParked:
				select {
				case <-t.parkCh:
					t.state = stReady
					t.parkCh = nil
					ready = append(ready, t)
				default:
				}
			}
		}
		if len(ready) > 0 {
			idx := 0
			if len(ready) > 1 {
				d.steps++
				if d.MaxSteps > 0 && d.steps > d.MaxSteps {
					d.cancelLocked(ErrBudget)
					return nil
				}
				cands := make([]Cand, len(ready))
				for i, t := range ready {
					cands[i] = Cand{ID: t.id, Name: t.name}
				}
				idx = d.policy.Pick(cands)
				if idx < 0 {
					// A negative pick is a controlled abort request
					// (see ErrPolicyAbort), not a policy bug.
					d.cancelLocked(ErrPolicyAbort)
					return nil
				}
				if idx >= len(ready) {
					panic(fmt.Sprintf("sched: policy picked %d of %d candidates", idx, len(ready)))
				}
				ch := Choice{N: len(ready), Picked: idx}
				d.choices = append(d.choices, ch)
				if d.OnChoice != nil {
					d.OnChoice(ch)
				}
			}
			return ready[idx]
		}
		// Nothing runnable: advance the virtual clock to the next
		// deadline, or declare a stall.
		wake, ok := d.nextDeadlineLocked()
		if !ok {
			d.cancelLocked(&StallError{Dump: d.dumpLocked()})
			return nil
		}
		if wake > d.now {
			d.now = wake
		}
		for _, t := range d.tasks {
			if t.state == stSleeping && t.wakeAt <= d.now {
				t.state = stReady
			}
		}
		var due []*vtimer
		rest := d.timers[:0]
		for _, tm := range d.timers {
			switch {
			case tm.stopped:
			case tm.when <= d.now:
				due = append(due, tm)
			default:
				rest = append(rest, tm)
			}
		}
		d.timers = rest
		sort.Slice(due, func(i, j int) bool {
			if due[i].when != due[j].when {
				return due[i].when < due[j].when
			}
			return due[i].seq < due[j].seq
		})
		for _, tm := range due {
			tm.fired = true
			d.spawnLocked(tm.name, tm.f)
		}
	}
}

func (d *Det) nextDeadlineLocked() (time.Duration, bool) {
	var min time.Duration
	found := false
	for _, t := range d.tasks {
		if t.state == stSleeping && (!found || t.wakeAt < min) {
			min, found = t.wakeAt, true
		}
	}
	for _, tm := range d.timers {
		if !tm.stopped && (!found || tm.when < min) {
			min, found = tm.when, true
		}
	}
	return min, found
}

func (d *Det) dumpLocked() string {
	var b strings.Builder
	for _, t := range d.tasks {
		if t.state == stDone {
			continue
		}
		fmt.Fprintf(&b, "  task %d %q: %s", t.id, t.name, t.state)
		if t.label != "" {
			fmt.Fprintf(&b, " at %q", t.label)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// --- Controller interface ---

// Go starts body as a controlled task; it becomes runnable at the
// next scheduling point.
func (d *Det) Go(name string, body func()) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.spawnLocked(name, body)
}

// Yield marks a scheduling point in the current task.
func (d *Det) Yield(label string) {
	d.mu.Lock()
	t := d.cur
	t.state = stReady
	t.label = label
	d.reschedule(t)
}

// Park blocks the current task until ch carries a signal. The signal
// is consumed. If it is already pending, Park is just a Yield.
func (d *Det) Park(label string, ch chan struct{}) {
	d.mu.Lock()
	t := d.cur
	t.label = label
	select {
	case <-ch:
		t.state = stReady
	default:
		t.state = stParked
		t.parkCh = ch
	}
	d.reschedule(t)
}

// --- Clock interface (virtual time) ---

// Now returns the virtual time.
func (d *Det) Now() time.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return epoch.Add(d.now)
}

// Sleep suspends the current task for d virtual time units; the clock
// jumps forward only when no other task can run.
func (d *Det) Sleep(dur time.Duration) {
	if dur <= 0 {
		d.Yield("sleep")
		return
	}
	d.mu.Lock()
	t := d.cur
	t.state = stSleeping
	t.label = "sleep"
	t.wakeAt = d.now + dur
	d.reschedule(t)
}

// AfterFunc schedules f to run as a fresh controlled task once the
// virtual clock reaches now+dur.
func (d *Det) AfterFunc(dur time.Duration, f func()) Timer {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.timerSeq++
	tm := &vtimer{d: d, name: fmt.Sprintf("timer%d", d.timerSeq), when: d.now + dur, seq: d.timerSeq, f: f}
	d.timers = append(d.timers, tm)
	return tm
}
