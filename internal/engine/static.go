package engine

import (
	"slices"
	"strings"

	"pdps/internal/match"
	"pdps/internal/trace"
)

// Static is the multiple-thread static approach (Section 4.1): the
// Parallel committer loop with no lock manager. The pre-computed
// rule-interference relation admits waves of productions, none writing
// a tuple another touches, whose members fire in parallel. Theorem 1:
// the members update non-overlapping parts of working memory, so every
// serial order of a wave is equivalent, and the committer commits them
// in the order they arrive.
type Static struct{ *Parallel }

// NewStatic builds a static-partition parallel engine: NewParallel's
// committer, queue, controller and agenda, with the interference
// matrix in place of a lock manager. The matrix materialises rows
// lazily, so large generated programs (cmd/psgen) pay O(n) instead of
// O(n²) when only a few rules ever activate together.
func NewStatic(p Program, opts Options) (*Static, error) {
	e, err := newPipeline(p, opts)
	if err != nil {
		return nil, err
	}
	e.im = match.NewInterferenceMatrix(p.Rules)
	return &Static{e}, nil
}

// dispatchWave is the static admission policy. Once nothing is in
// flight it makes the finished wave durable with one fsync and starts
// the next wave; then it dispatches the wave's members while fewer
// than Np of them run.
func (e *Parallel) dispatchWave() {
	if len(e.inflight) == 0 {
		e.rt.syncStorage()
		if e.rt.err != nil {
			return
		}
		e.startWave()
	}
	for e.next < len(e.wave) && len(e.inflight)-(len(e.wave)-e.next) < e.rt.opts.Np {
		f := e.wave[e.next]
		e.next++
		e.ctl.fire(f)
	}
}

// startWave builds a wave from the agenda: its top, which is the
// strategy's pick over every unfired instantiation, then greedily
// every other member in key order that each member so far admits, up
// to the firings MaxFirings leaves. The members leave the agenda and
// stay in flight until they land. A wave is one cycle.
func (e *Parallel) startWave() {
	seed := e.agenda.top()
	if seed == nil {
		return
	}
	e.rt.met.cycleInc()
	room := e.rt.opts.MaxFirings - e.rt.firings()
	e.wave, e.next = append(e.wave[:0], seed), 0
	byKey := slices.Clone(e.agenda.heap)
	slices.SortFunc(byKey, func(a, b *agendaEntry) int { return strings.Compare(a.Key(), b.Key()) })
next:
	for _, f := range byKey {
		if len(e.wave) == room {
			break
		}
		for _, m := range e.wave {
			if m == f || !e.admits(m.In, f.In) {
				continue next
			}
		}
		e.wave = append(e.wave, f)
	}
	for _, f := range e.wave {
		e.agenda.unlink(f)
		e.inflight[f.Key()] = f
	}
}

// admits reports whether two instantiations may fire in one wave:
// their rules do not interfere (Section 4.1), and no tuple one writes
// is read or written by the other. The second test is the granularity
// problem the paper discusses: the matrix compares attributes, but a
// modify re-tags the whole tuple, retiring every instantiation that
// matched it. Together they make firing either first leave the other
// active (Theorem 1).
func (e *Parallel) admits(a, b *match.Instantiation) bool {
	return !e.im.Interferes(a.Rule.Name, b.Rule.Name) && !a.Clashes(b)
}

// fireStatic executes one wave member. Admission took the place of
// locks and of the stale check, so it stages the member's effects and
// submits them without waiting for the committer's verdict.
func (e *Parallel) fireStatic(f *agendaEntry) {
	rt := e.rt
	in := f.In
	rt.opts.Log.Append(trace.Event{Kind: trace.KindFire, Rule: in.Rule.Name, Inst: in.Key()})
	start := rt.opts.Clock.Now()
	if d := rt.opts.RuleDelay[in.Rule.Name]; d > 0 {
		rt.opts.Clock.Sleep(d)
	}
	wtx := rt.store.Begin()
	halt, err := match.ExecuteActions(in, wtx)
	if err != nil {
		wtx.Abort()
		e.logResolution(trace.KindAbort, in, 0, "action error")
		e.submit(pevent{kind: evAborted, f: f, err: err})
		return
	}
	e.submit(pevent{kind: evCommit, f: f, wtx: wtx, halt: halt, start: start})
}
