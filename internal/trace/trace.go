// Package trace records the observable events of a production-system
// execution — firings, commits, aborts, halts — in a concurrency-safe
// log. The commit subsequence is the execution string the paper's
// semantic-consistency condition (Definition 3.2) is stated over, and
// the log is what the post-hoc consistency checker consumes.
package trace

import (
	"fmt"
	"sync"
)

// Kind discriminates event types.
type Kind uint8

// Event kinds.
const (
	// KindFire records the start of a production's execution.
	KindFire Kind = iota
	// KindCommit records a successful commit (WM atomically updated).
	KindCommit
	// KindAbort records an abort (deadlock victim, Rc–Wa victim, or
	// stale instantiation).
	KindAbort
	// KindSkip records a dispatched instantiation found invalid before
	// execution started (its condition no longer holds).
	KindSkip
	// KindHalt records execution of a halt action.
	KindHalt
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindFire:
		return "fire"
	case KindCommit:
		return "commit"
	case KindAbort:
		return "abort"
	case KindSkip:
		return "skip"
	case KindHalt:
		return "halt"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one log entry.
type Event struct {
	// Seq is the global order of the event in the log.
	Seq int
	// Kind is the event type.
	Kind Kind
	// Rule is the production's name.
	Rule string
	// Inst identifies the instantiation (rule + matched WME versions).
	Inst string
	// Txn is the lock-manager transaction ID, 0 for single-thread runs.
	Txn int64
	// Detail carries the abort reason or other context.
	Detail string
	// WMEs holds content fingerprints of the matched WMEs at commit
	// time, used by the post-hoc consistency checker.
	WMEs []string
}

// String renders the event compactly.
func (e Event) String() string {
	s := fmt.Sprintf("#%d %s %s", e.Seq, e.Kind, e.Rule)
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}

// Log is an append-only, concurrency-safe event log.
type Log struct {
	mu     sync.Mutex
	events []Event
}

// New returns an empty log.
func New() *Log { return &Log{} }

// Append adds an event, assigning its sequence number, and returns it.
func (l *Log) Append(e Event) Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Seq = len(l.events)
	l.events = append(l.events, e)
	return e
}

// Events returns a snapshot of the log.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// Commits returns the commit events in order — the execution string.
func (l *Log) Commits() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for _, e := range l.events {
		if e.Kind == KindCommit {
			out = append(out, e)
		}
	}
	return out
}

// Range calls fn on each event from sequence number from onward, in
// order, until fn returns false — a cursor read that copies nothing.
// fn runs under the log's lock, so it must not call back into the log.
func (l *Log) Range(from int, fn func(Event) bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := from; i < len(l.events); i++ {
		if !fn(l.events[i]) {
			return
		}
	}
}
