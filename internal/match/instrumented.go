package match

import (
	"pdps/internal/obs"
	"pdps/internal/sched"
	"pdps/internal/wm"
)

// Instrumented wraps a Matcher and records match-phase metrics: update
// count and per-update match time (the paper's match-phase cost, the
// dominant term of Section 2's cycle breakdown) and the conflict-set
// size sampled at each ConflictSet call (once per recognize-act cycle
// in every engine). The wrapper adds work only around whole matcher
// calls, so the matcher's own hot path is untouched.
type Instrumented struct {
	inner Matcher
	clock sched.Clock

	updates  *obs.Counter
	updateNS *obs.Histogram
	csSize   *obs.Gauge
}

// Instrument wraps m with metric recording into reg. The clock times
// updates (virtual under a deterministic scheduler); a nil clock
// disables timing but not counting.
func Instrument(m Matcher, reg *obs.Registry, clock sched.Clock) *Instrumented {
	return &Instrumented{
		inner:    m,
		clock:    clock,
		updates:  reg.Counter("match_updates_total"),
		updateNS: reg.Histogram("match_update_ns", "ns"),
		csSize:   reg.Gauge("match_conflict_set_size"),
	}
}

// AddRule forwards to the wrapped matcher.
func (im *Instrumented) AddRule(r *Rule) error { return im.inner.AddRule(r) }

// update runs one matcher update under the metric clock.
func (im *Instrumented) update(f func()) {
	im.updates.Inc()
	if im.clock == nil {
		f()
		return
	}
	start := im.clock.Now()
	f()
	im.updateNS.ObserveDuration(im.clock.Now().Sub(start))
}

// Insert forwards to the wrapped matcher, timing the update.
func (im *Instrumented) Insert(w *wm.WME) { im.update(func() { im.inner.Insert(w) }) }

// Remove forwards to the wrapped matcher, timing the update.
func (im *Instrumented) Remove(w *wm.WME) { im.update(func() { im.inner.Remove(w) }) }

// ConflictSet forwards to the wrapped matcher and samples the set's
// size into the match_conflict_set_size gauge.
func (im *Instrumented) ConflictSet() *ConflictSet {
	cs := im.inner.ConflictSet()
	im.csSize.Set(int64(cs.Len()))
	return cs
}

// TrackChanges forwards to the wrapped matcher.
func (im *Instrumented) TrackChanges(on bool) { im.inner.TrackChanges(on) }
