package engine

import (
	"pdps/internal/lock"
	"pdps/internal/match"
)

// Refraction reports the size of the session's refraction memory and
// how many of its entries name only live WME versions, i.e. could still
// block a firing.
func (s *Session) Refraction() (size, live int) {
	for _, in := range s.rt.fired {
		if !s.rt.dead(in) {
			live++
		}
	}
	return len(s.rt.fired), live
}

// RaceEnabled reports whether the race detector built this test binary.
const RaceEnabled = raceEnabled

// Interferes reports the Static engine's rule-interference relation
// between two rules.
func (e *Static) Interferes(a, b string) bool { return e.im.Interferes(a, b) }

// Admits reports whether Static's batch guard lets a and b fire in one
// batch.
func (e *Static) Admits(a, b *match.Instantiation) bool { return e.admits(a, b) }

// PlannedLock is one entry of a Parallel firing's lock plans.
type PlannedLock struct {
	Res  lock.Resource
	Mode lock.Mode
}

// LockPlan returns the instantiation's Rc plan followed by its Ra/Wa
// plan, as a Parallel firing acquires them.
func LockPlan(in *match.Instantiation) []PlannedLock {
	var out []PlannedLock
	for _, r := range rcResources(nil, in) {
		out = append(out, PlannedLock{r, lock.Rc})
	}
	for _, l := range rhsLocks(nil, in) {
		out = append(out, PlannedLock{l.res, l.mode})
	}
	return out
}

// Next returns the instantiation the next Step would fire, without
// firing it.
func (s *Session) Next() *match.Instantiation { return s.rt.next() }
