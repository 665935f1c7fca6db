// Package sched is the concurrency seam of the dynamic engines: a
// Clock abstraction over timing (retry backoff, simulated rule costs,
// latency measurement) and a cooperative Controller that can run an
// engine's goroutines one at a time under a scheduling policy, making
// a whole parallel run deterministic and replayable. The Parallel
// engine runs its firings and parks its waits through the seam in
// every run: free-running, an in-engine pool of goroutines and the
// real clock stand behind it, and the detsched harness installs a Det
// controller instead to explore interleavings of the same code. The
// lock manager consults a controller only when one is installed.
package sched

import "time"

// Timer is a handle on a pending AfterFunc callback.
type Timer interface {
	// Stop cancels the timer; it reports whether the call prevented
	// the callback from firing.
	Stop() bool
}

// Clock supplies time to the engines. Implementations must be safe
// for concurrent use.
type Clock interface {
	// Now returns the current time (virtual under a Det controller).
	Now() time.Time
	// Sleep pauses the calling goroutine for the duration.
	Sleep(d time.Duration)
	// AfterFunc runs f after the duration, in its own goroutine (or
	// controlled task).
	AfterFunc(d time.Duration, f func()) Timer
}

// Real is the wall-clock Clock backed by the time package.
type Real struct{}

// Now returns time.Now().
func (Real) Now() time.Time { return time.Now() }

// Sleep calls time.Sleep.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// AfterFunc calls time.AfterFunc.
func (Real) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Immediate is a Clock that collapses every delay to zero: Sleep
// returns at once and AfterFunc callbacks run immediately. Injecting
// it into an engine disables retry backoff and simulated rule costs
// without touching the engine's concurrency.
type Immediate struct{}

// Now returns time.Now(), so latency accounting stays meaningful.
func (Immediate) Now() time.Time { return time.Now() }

// Sleep returns immediately.
func (Immediate) Sleep(time.Duration) {}

// AfterFunc runs f at once in its own goroutine.
func (Immediate) AfterFunc(_ time.Duration, f func()) Timer {
	go f()
	return firedTimer{}
}

type firedTimer struct{}

func (firedTimer) Stop() bool { return false }
