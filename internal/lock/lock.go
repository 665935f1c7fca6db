// Package lock implements the concurrency-control substrate of the
// paper's dynamic approach (Section 4): a lock manager supporting both
// conventional two-phase locking and the paper's improved three-mode
// scheme with Rc (condition-read), Ra (action-read) and Wa
// (action-write) locks per Table 4.1. Under the improved scheme a Wa
// lock is granted even while other productions hold Rc locks on the
// same data — the Rc–Wa conflict is allowed to exist — and safety is
// restored at commit time by aborting the Rc holders that lost the
// race (Section 4.3, rules (i) and (ii)).
//
// One mutex guards the manager: the lock table, the transaction
// registry with its waits-for graph, and the per-class waiter lists. A
// release wakes exactly the waiters on resources of the classes the
// ending transaction held, so which tasks wake — and so a controlled
// run's schedule — depends only on the locks taken.
//
// Tuple/relation hierarchy is mediated by intention bookkeeping in the
// multi-granularity style: every tuple-level grant also records an
// intention mark for its mode on the class's relation-level entry, so
// a relation-level request resolves its conflicts against that one
// entry — full-mode holders plus intention marks, each judged by the
// scheme's Table 4.1 compatibility of the underlying tuple mode — in
// O(holders) rather than by scanning every tuple entry of the class.
package lock

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"pdps/internal/sched"
)

// Mode is a lock mode. Modes are ordered by strength: Rc < Ra < Wa.
type Mode uint8

// The three lock modes of Section 4.3.
const (
	// Rc is the read lock acquired for condition (LHS) evaluation.
	Rc Mode = iota
	// Ra is the read lock acquired at the start of action execution.
	Ra
	// Wa is the write lock acquired at the start of action execution.
	Wa
)

// String returns the paper's name for the mode.
func (m Mode) String() string {
	switch m {
	case Rc:
		return "Rc"
	case Ra:
		return "Ra"
	case Wa:
		return "Wa"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Scheme selects the compatibility matrix.
type Scheme uint8

const (
	// Scheme2PL is conventional two-phase locking: condition reads are
	// ordinary shared locks held to commit, so Rc behaves as Ra
	// (Section 4.2, Theorem 2).
	Scheme2PL Scheme = iota
	// SchemeRcRaWa is the improved scheme of Section 4.3 (Table 4.1).
	SchemeRcRaWa
)

// String names the scheme.
func (s Scheme) String() string {
	if s == Scheme2PL {
		return "2pl"
	}
	return "rcrawa"
}

// Compatible reports whether a lock request of mode req can be granted
// while another transaction holds mode held on the same data, per the
// scheme's compatibility matrix. For SchemeRcRaWa this is Table 4.1;
// note the deliberate asymmetry: held Rc admits a Wa request, but held
// Wa rejects an Rc request.
func Compatible(s Scheme, held, req Mode) bool {
	if s == Scheme2PL {
		if held == Rc {
			held = Ra
		}
		if req == Rc {
			req = Ra
		}
	}
	switch held {
	case Rc:
		return true
	case Ra:
		return req != Wa
	case Wa:
		return false
	}
	return false
}

// Resource identifies a lockable datum: a tuple (Class, ID) or a whole
// relation (ID == RelationLevel). Relation-level locks conflict with
// every tuple lock of the class and vice versa — the escalation the
// paper prescribes for negated (existence-dependent) conditions.
type Resource struct {
	Class string
	ID    int64
}

// RelationLevel is the ID denoting a whole-relation resource.
const RelationLevel int64 = 0

// Relation returns the relation-level resource of a class.
func Relation(class string) Resource { return Resource{Class: class, ID: RelationLevel} }

// String renders the resource as class[id] or class[*].
func (r Resource) String() string {
	if r.ID == RelationLevel {
		return r.Class + "[*]"
	}
	return fmt.Sprintf("%s[%d]", r.Class, r.ID)
}

// TxnID identifies one production-firing transaction. IDs are assigned
// monotonically; deadlock resolution aborts the youngest (largest ID)
// transaction in a cycle.
type TxnID int64

// Errors returned by Acquire.
var (
	// ErrDeadlock reports that the transaction was chosen as the
	// deadlock victim and must abort.
	ErrDeadlock = errors.New("lock: deadlock victim")
	// ErrAborted reports that the transaction was aborted by another
	// transaction's commit (an Rc–Wa conflict resolution) or by the
	// engine while it was waiting.
	ErrAborted = errors.New("lock: transaction aborted")
)

// txnState is one live transaction. Everything but id is guarded by
// the manager mutex; id is immutable.
type txnState struct {
	id       TxnID
	held     map[Resource]Mode
	aborted  bool
	abortErr error
	// waitsOn maps each transaction currently blocking this one to the
	// lock mode it holds; rebuilt on every blocked-acquire iteration.
	waitsOn map[TxnID]Mode
	// waitCh, when non-nil, is the channel the transaction's Acquire is
	// blocked on; abortLocked signals it so a targeted abort reaches
	// exactly the right waiter.
	waitCh chan struct{}
}

// signal delivers a non-blocking wakeup on a one-slot channel. Unlike
// close, it can be sent any number of times (a release plus a targeted
// abort may both hit the same waiter).
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// intentBit is the intention mark for a tuple-level mode, recorded on
// the class's relation entry (multi-granularity IRc/IRa/IWa).
func intentBit(m Mode) uint8 { return 1 << m }

type entry struct {
	holders map[TxnID]Mode
	// intents, on relation-level entries, maps each transaction holding
	// tuple locks inside the class to the bitmask of tuple modes it
	// holds — the intention modes (IRc/IRa/IWa) of hierarchical locking.
	// A relation-level request conflicts with an intention mark exactly
	// when it would conflict with the underlying tuple mode (Table 4.1).
	// Nil on tuple-level entries.
	intents map[TxnID]uint8
}

// live reports whether the entry still records any lock state.
func (e *entry) live() bool { return len(e.holders) > 0 || len(e.intents) > 0 }

// Manager is the lock manager. All methods are safe for concurrent
// use; one mutex guards the lock table, the transaction registry and
// the waiter lists.
type Manager struct {
	scheme Scheme
	policy DeadlockPolicy
	// ctl, when non-nil, is the deterministic scheduling controller:
	// Acquire yields to it on entry (every lock request is a scheduling
	// point) and parks through it instead of blocking natively.
	ctl sched.Controller
	// met, when non-nil, holds the cached obs metric handles; clock,
	// when non-nil, times lock waits (virtual time under sched).
	met   *metrics
	clock sched.Clock

	mu      sync.Mutex
	entries map[Resource]*entry
	txns    map[TxnID]*txnState
	nextID  TxnID
	// waiters holds, per class, one one-slot channel per blocked
	// Acquire iteration on a resource of that class; a release in the
	// class signals and clears them. Channel waiters (rather than a
	// sync.Cond) let a deterministic controller park on the same
	// primitive the free-running path blocks on.
	waiters map[string][]chan struct{}
}

// NewManager returns a lock manager using the given scheme and the
// default deadlock policy (detection with youngest-victim abort).
func NewManager(s Scheme) *Manager {
	return NewManagerPolicy(s, DeadlockDetect)
}

// NewManagerPolicy returns a lock manager with an explicit deadlock
// policy.
func NewManagerPolicy(s Scheme, p DeadlockPolicy) *Manager {
	return &Manager{
		scheme:  s,
		policy:  p,
		entries: make(map[Resource]*entry),
		txns:    make(map[TxnID]*txnState),
		waiters: make(map[string][]chan struct{}),
	}
}

// SetController installs a deterministic scheduling controller. Call
// it before any Acquire; a nil controller (the default) leaves the
// manager free-running.
func (m *Manager) SetController(c sched.Controller) { m.ctl = c }

// txn looks up a transaction in the registry.
func (m *Manager) txn(id TxnID) *txnState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.txns[id]
}

// Begin registers a new transaction and returns its ID.
func (m *Manager) Begin() TxnID {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	id := m.nextID
	m.txns[id] = &txnState{id: id, held: make(map[Resource]Mode)}
	m.met.begin()
	return id
}

// Acquire blocks until the transaction holds the resource in (at
// least) the requested mode, or returns ErrDeadlock/ErrAborted. Lock
// upgrades (Rc→Ra, Rc→Wa, Ra→Wa) are supported.
func (m *Manager) Acquire(id TxnID, res Resource, mode Mode) error {
	tx := m.txn(id)
	if tx == nil {
		return fmt.Errorf("lock: unknown transaction %d", id)
	}
	if m.ctl != nil {
		// Every lock request is a scheduling point: under deterministic
		// exploration this is where interleavings branch.
		m.ctl.Yield("lock:" + res.String())
	}
	waited := false
	conflicted := false
	var waitStart time.Time
	// finishWait closes out the queue-time measurement started when the
	// request first blocked; called on every exit path.
	finishWait := func() {
		if waited && m.met != nil && m.clock != nil {
			m.met.waitNS.ObserveDuration(m.clock.Now().Sub(waitStart))
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		tx.waitCh = nil
		if tx.aborted {
			tx.waitsOn = nil
			finishWait()
			return tx.abortErr
		}
		if cur, held := tx.held[res]; held && cur >= mode {
			tx.waitsOn = nil
			finishWait()
			return nil
		}
		blockers := m.blockersLocked(id, res, mode)
		if len(blockers) == 0 {
			m.grantLocked(tx, res, mode)
			if waited {
				// Wake others: the wait graph changed.
				m.wakeLocked(res.Class)
			}
			finishWait()
			return nil
		}
		if !conflicted {
			// First time this request found itself blocked: record one
			// conflict per blocking (held, requested) mode pair — the
			// degree-of-conflict observable of Section 5.1.
			m.met.conflict(blockers, mode)
			conflicted = true
		}
		tx.waitsOn = blockers
		if m.resolveBlockedLocked(id, blockers) {
			tx.waitsOn = nil
			finishWait()
			return ErrDeadlock
		}
		if !waited && !m.anySettlingLocked(blockers) {
			// An aborted blocker holds its locks until its owner finishes
			// End, so wait for the release like any other waiter — but
			// skip the wait-counter so retried checks are not
			// double-counted.
			waited = true
			m.met.wait()
			if m.clock != nil {
				waitStart = m.clock.Now()
			}
		}
		// Register both wakeups before releasing the mutex: a release in
		// the class or an abort of tx after this point signals ch, and
		// one before it was observed above. No wakeup can be lost.
		ch := make(chan struct{}, 1)
		tx.waitCh = ch
		m.waiters[res.Class] = append(m.waiters[res.Class], ch)
		m.park(res, ch)
	}
}

// park releases the manager mutex while the request waits on ch and
// re-takes it on the way out — also when a cancelled controller
// unwinds the task with a panic, so Acquire's deferred unlock always
// finds the mutex held.
func (m *Manager) park(res Resource, ch chan struct{}) {
	m.mu.Unlock()
	defer m.mu.Lock()
	if m.ctl != nil {
		m.ctl.Park("lockwait:"+res.String(), ch)
	} else {
		<-ch
	}
}

// wakeLocked signals and clears every waiter on a resource of the
// class. Caller holds m.mu.
func (m *Manager) wakeLocked(class string) {
	ws := m.waiters[class]
	if len(ws) == 0 {
		return
	}
	for _, ch := range ws {
		signal(ch)
	}
	clear(ws)
	m.waiters[class] = ws[:0]
}

// grantLocked records the lock; caller holds m.mu. A tuple-level grant
// also marks the transaction's intention mode on the class's relation
// entry, so relation-level requests and commit-time victim scans read
// one entry instead of walking the class's tuple entries.
func (m *Manager) grantLocked(tx *txnState, res Resource, mode Mode) {
	e := m.entries[res]
	if e == nil {
		e = &entry{holders: make(map[TxnID]Mode)}
		m.entries[res] = e
	}
	if cur, ok := e.holders[tx.id]; !ok || mode > cur {
		e.holders[tx.id] = mode
	}
	if res.ID != RelationLevel {
		rel := m.entries[Relation(res.Class)]
		if rel == nil {
			rel = &entry{holders: make(map[TxnID]Mode)}
			m.entries[Relation(res.Class)] = rel
		}
		if rel.intents == nil {
			rel.intents = make(map[TxnID]uint8)
		}
		rel.intents[tx.id] |= intentBit(mode)
	}
	if cur, ok := tx.held[res]; !ok || mode > cur {
		tx.held[res] = mode
	}
	tx.waitsOn = nil
	m.met.grant(mode)
}

// blockersLocked returns the transactions whose held locks are
// incompatible with the request, mapped to the strongest such held
// mode (for the conflict-by-mode-pair metric), considering the
// tuple/relation hierarchy. A tuple-level request checks its own entry
// plus the relation entry's full-mode holders; a relation-level
// request checks the relation entry's full-mode holders plus its
// intention marks, each judged by the underlying tuple mode. Caller
// holds m.mu.
func (m *Manager) blockersLocked(id TxnID, res Resource, mode Mode) map[TxnID]Mode {
	blockers := make(map[TxnID]Mode)
	note := func(hid TxnID, held Mode) {
		if hid == id {
			return
		}
		if !Compatible(m.scheme, held, mode) {
			if cur, ok := blockers[hid]; !ok || held > cur {
				blockers[hid] = held
			}
		}
	}
	collect := func(e *entry) {
		if e == nil {
			return
		}
		for hid, held := range e.holders {
			note(hid, held)
		}
	}
	if res.ID == RelationLevel {
		rel := m.entries[res]
		collect(rel)
		if rel != nil {
			for hid, bits := range rel.intents {
				for tm := Rc; tm <= Wa; tm++ {
					if bits&intentBit(tm) != 0 {
						note(hid, tm)
					}
				}
			}
		}
	} else {
		collect(m.entries[res])
		collect(m.entries[Relation(res.Class)])
	}
	if len(blockers) == 0 {
		return nil
	}
	return blockers
}

// anySettlingLocked reports whether any of the transactions is aborted
// or gone — i.e. its locks are about to be released. Caller holds m.mu.
func (m *Manager) anySettlingLocked(ids map[TxnID]Mode) bool {
	for id := range ids {
		if m.settlingLocked(id) {
			return true
		}
	}
	return false
}

// settlingLocked reports whether the transaction is aborted or gone.
// Caller holds m.mu.
func (m *Manager) settlingLocked(id TxnID) bool {
	tx := m.txns[id]
	return tx == nil || tx.aborted
}

// findDeadlockVictimLocked looks for a waits-for cycle through id and
// returns the youngest transaction in the cycle, or 0 if none. Caller
// holds m.mu.
func (m *Manager) findDeadlockVictimLocked(id TxnID) TxnID {
	// DFS from id following waitsOn edges; a path back to id is a cycle.
	var path []TxnID
	onPath := make(map[TxnID]bool)
	visited := make(map[TxnID]bool)
	var cycle []TxnID
	var dfs func(cur TxnID) bool
	dfs = func(cur TxnID) bool {
		if onPath[cur] {
			// Extract the cycle suffix.
			for i := len(path) - 1; i >= 0; i-- {
				cycle = append(cycle, path[i])
				if path[i] == cur {
					break
				}
			}
			return true
		}
		if visited[cur] {
			return false
		}
		visited[cur] = true
		tx := m.txns[cur]
		if tx == nil || tx.aborted {
			return false
		}
		onPath[cur] = true
		path = append(path, cur)
		// Sorted edge order keeps victim selection deterministic when a
		// node waits on several transactions (map iteration order would
		// otherwise leak into which cycle is found first).
		next := make([]TxnID, 0, len(tx.waitsOn))
		for n := range tx.waitsOn {
			next = append(next, n)
		}
		slices.Sort(next)
		for _, n := range next {
			if dfs(n) {
				return true
			}
		}
		path = path[:len(path)-1]
		onPath[cur] = false
		return false
	}
	if !dfs(id) {
		return 0
	}
	return slices.Max(cycle)
}

// abortLocked marks a transaction aborted and signals its pending
// Acquire, if any, through the per-transaction wait channel — a
// targeted wakeup, not a broadcast. The transaction's locks remain
// held until End is called (the owner must roll back first). Caller
// holds m.mu.
func (m *Manager) abortLocked(id TxnID, err error) {
	tx := m.txns[id]
	if tx == nil || tx.aborted {
		return
	}
	tx.aborted = true
	tx.abortErr = err
	tx.waitsOn = nil
	m.met.txnAbort()
	if tx.waitCh != nil {
		signal(tx.waitCh)
	}
}

// Abort marks the transaction aborted: a pending or future Acquire by
// it returns ErrAborted. Its locks stay held until End.
func (m *Manager) Abort(id TxnID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.abortLocked(id, ErrAborted)
}

// Aborted reports whether the transaction has been marked aborted.
func (m *Manager) Aborted(id TxnID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	tx := m.txns[id]
	return tx != nil && tx.aborted
}

// RcVictims returns the transactions holding Rc locks that conflict
// with the given transaction's Wa locks — the productions that must be
// forced to abort when this transaction commits first (Section 4.3,
// rule (ii)). It is only meaningful under SchemeRcRaWa; under 2PL the
// conflict cannot arise and the result is always empty.
func (m *Manager) RcVictims(id TxnID) []TxnID {
	m.mu.Lock()
	defer m.mu.Unlock()
	tx := m.txns[id]
	if tx == nil {
		return nil
	}
	var out []TxnID
	scan := func(e *entry) {
		if e == nil {
			return
		}
		for hid, held := range e.holders {
			if hid != id && held == Rc {
				out = append(out, hid)
			}
		}
	}
	for res, mode := range tx.held {
		if mode != Wa {
			continue
		}
		scan(m.entries[res])
		if res.ID == RelationLevel {
			// A class-level Wa also victimises tuple-level Rc holders
			// inside the class: their intention marks carry the Rc bit.
			if rel := m.entries[res]; rel != nil {
				for hid, bits := range rel.intents {
					if hid != id && bits&intentBit(Rc) != 0 {
						out = append(out, hid)
					}
				}
			}
		} else {
			scan(m.entries[Relation(res.Class)])
		}
	}
	slices.Sort(out)
	out = slices.Compact(out)
	for range out {
		// Each victim is one Rc–Wa conflict resolved at commit time
		// (rule (ii)); count it into the same series a blocking scheme
		// feeds, so "degree of conflict" is comparable across schemes.
		m.met.rcVictim()
	}
	return out
}

// End releases all of the transaction's locks, wakes the waiters of
// every class it held a lock in, and forgets it. It is called at
// commit and after abort rollback.
func (m *Manager) End(id TxnID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tx := m.txns[id]
	if tx == nil {
		return
	}
	for res := range tx.held {
		if e := m.entries[res]; e != nil {
			delete(e.holders, id)
			if !e.live() {
				delete(m.entries, res)
			}
		}
		if res.ID != RelationLevel {
			// Drop the intention mark; the whole class's tuple locks are
			// released together here, so one delete per class would do,
			// but per-resource keeps this loop shape simple.
			relRes := Relation(res.Class)
			if rel := m.entries[relRes]; rel != nil {
				delete(rel.intents, id)
				if !rel.live() {
					delete(m.entries, relRes)
				}
			}
		}
		m.wakeLocked(res.Class)
	}
	delete(m.txns, id)
}
