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
// run's schedule — depends only on the locks taken. The table reuses
// what it stores: entries and transactions come from free lists, their
// holders and held sets are short slices, and blocker sets are scratch
// slices of the manager, so a lock round trip on a warmed manager
// allocates nothing but the channel a blocked request waits on.
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
	"cmp"
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

// txnState is one transaction. Everything but id is guarded by the
// manager mutex; id is set by Begin and fixed until End, which puts the
// state on the manager's free list for a later Begin to reuse.
type txnState struct {
	id TxnID
	// held lists the transaction's locks in acquisition order, one
	// element per resource at its strongest mode. A firing holds a
	// handful, so a scan of the slice is the lookup.
	held     []grant[Resource]
	aborted  bool
	abortErr error
	// waitsOn lists each transaction currently blocking this one with
	// the strongest lock mode it holds there, sorted by ID; rebuilt on
	// every blocked-acquire iteration.
	waitsOn []grant[TxnID]
	// waitCh, when non-nil, is the channel the transaction's Acquire is
	// blocked on; abortLocked signals it so a targeted abort reaches
	// exactly the right waiter.
	waitCh chan struct{}
}

// grant pairs a key with the strongest mode granted there: a
// transaction on a lock entry or in a blocker set, a resource in a
// transaction's held set.
type grant[K comparable] struct {
	key  K
	mode Mode
}

// find returns the index of key in hs, or -1.
func find[K comparable](hs []grant[K], key K) int {
	for i := range hs {
		if hs[i].key == key {
			return i
		}
	}
	return -1
}

// raise records key at mode in hs, keeping an existing element's
// stronger mode, and returns the slice.
func raise[K comparable](hs []grant[K], key K, mode Mode) []grant[K] {
	if i := find(hs, key); i >= 0 {
		hs[i].mode = max(hs[i].mode, mode)
		return hs
	}
	return append(hs, grant[K]{key, mode})
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

// intent is one transaction's intention marks on a relation entry: the
// bitmask of tuple modes it holds inside the class.
type intent struct {
	id   TxnID
	bits uint8
}

// entry is one lock head: the holders of a resource. Entries come from
// the manager's free list and go back to it when the last holder and
// intention mark leave, keeping the capacity of both slices.
type entry struct {
	// holders lists the transactions holding the resource in full
	// mode, in grant order. Table 4.1 lets Rc holders coexist with one
	// Wa, so the usual length is one or two.
	holders []grant[TxnID]
	// intents, on relation-level entries, lists each transaction
	// holding tuple locks inside the class with the bitmask of tuple
	// modes it holds — the intention modes (IRc/IRa/IWa) of
	// hierarchical locking. A relation-level request conflicts with an
	// intention mark exactly when it would conflict with the underlying
	// tuple mode (Table 4.1). Empty on tuple-level entries.
	intents []intent
}

// live reports whether the entry still records any lock state.
func (e *entry) live() bool { return len(e.holders) > 0 || len(e.intents) > 0 }

// mark sets an intention bit for id.
func (e *entry) mark(id TxnID, bit uint8) {
	for i := range e.intents {
		if e.intents[i].id == id {
			e.intents[i].bits |= bit
			return
		}
	}
	e.intents = append(e.intents, intent{id, bit})
}

// drop removes id's full-mode hold and intention marks.
func (e *entry) drop(id TxnID) {
	if i := find(e.holders, id); i >= 0 {
		e.holders = slices.Delete(e.holders, i, i+1)
	}
	for i := range e.intents {
		if e.intents[i].id == id {
			e.intents = slices.Delete(e.intents, i, i+1)
			return
		}
	}
}

// Manager is the lock manager. All methods are safe for concurrent
// use; one mutex guards the lock table, the transaction registry, the
// waiter lists, the free lists and the scratch slices.
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

	// freeEntries and freeTxns hold the entries and transactions that
	// End retired, for the next grant and Begin to reuse: a run keeps
	// as many as were ever live at once, however long it runs.
	freeEntries []*entry
	freeTxns    []*txnState
	// blockers is blockersLocked's result, valid until its next call;
	// path and visited are the deadlock search's.
	blockers      []grant[TxnID]
	path, visited []TxnID
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
	var tx *txnState
	if n := len(m.freeTxns); n > 0 {
		tx, m.freeTxns = m.freeTxns[n-1], m.freeTxns[:n-1]
	} else {
		tx = new(txnState)
	}
	tx.id = m.nextID
	m.txns[tx.id] = tx
	m.met.begin()
	return tx.id
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
			tx.waitsOn = tx.waitsOn[:0]
			finishWait()
			return tx.abortErr
		}
		if i := find(tx.held, res); i >= 0 && tx.held[i].mode >= mode {
			tx.waitsOn = tx.waitsOn[:0]
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
		tx.waitsOn = append(tx.waitsOn[:0], blockers...)
		if m.resolveBlockedLocked(id, tx.waitsOn) {
			tx.waitsOn = tx.waitsOn[:0]
			finishWait()
			return ErrDeadlock
		}
		if !waited && !m.anySettlingLocked(tx.waitsOn) {
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
		// one before it was observed above. No wakeup can be lost. The
		// channel is new per wait: a reused one could still hold the
		// signal of a wakeup this wait did not need, and the next wait
		// would take it and re-check for nothing — under a controller,
		// a scheduling decision the run would not otherwise make.
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

// entryLocked returns the resource's entry, taking one from the free
// list if the resource has none. Caller holds m.mu.
func (m *Manager) entryLocked(res Resource) *entry {
	e := m.entries[res]
	if e == nil {
		if n := len(m.freeEntries); n > 0 {
			e, m.freeEntries = m.freeEntries[n-1], m.freeEntries[:n-1]
		} else {
			e = new(entry)
		}
		m.entries[res] = e
	}
	return e
}

// retireLocked puts the resource's entry back on the free list once
// it records no lock state. Caller holds m.mu.
func (m *Manager) retireLocked(res Resource, e *entry) {
	if !e.live() {
		delete(m.entries, res)
		m.freeEntries = append(m.freeEntries, e)
	}
}

// grantLocked records the lock; caller holds m.mu. A tuple-level grant
// also marks the transaction's intention mode on the class's relation
// entry, so relation-level requests and commit-time victim scans read
// one entry instead of walking the class's tuple entries.
func (m *Manager) grantLocked(tx *txnState, res Resource, mode Mode) {
	e := m.entryLocked(res)
	e.holders = raise(e.holders, tx.id, mode)
	if res.ID != RelationLevel {
		m.entryLocked(Relation(res.Class)).mark(tx.id, intentBit(mode))
	}
	tx.held = raise(tx.held, res, mode)
	tx.waitsOn = tx.waitsOn[:0]
	m.met.grant(mode)
}

// blockersLocked returns the transactions whose held locks are
// incompatible with the request, each with the strongest such held
// mode (for the conflict-by-mode-pair metric), sorted by ID and
// considering the tuple/relation hierarchy. A tuple-level request
// checks its own entry plus the relation entry's full-mode holders; a
// relation-level request checks the relation entry's full-mode holders
// plus its intention marks, each judged by the underlying tuple mode.
// The result is m.blockers, valid until the next call. Caller holds
// m.mu.
func (m *Manager) blockersLocked(id TxnID, res Resource, mode Mode) []grant[TxnID] {
	m.blockers = m.blockers[:0]
	if res.ID == RelationLevel {
		if rel := m.entries[res]; rel != nil {
			m.noteHoldersLocked(id, rel, mode)
			for _, in := range rel.intents {
				for tm := Rc; tm <= Wa; tm++ {
					if in.bits&intentBit(tm) != 0 {
						m.noteLocked(id, in.id, tm, mode)
					}
				}
			}
		}
	} else {
		if e := m.entries[res]; e != nil {
			m.noteHoldersLocked(id, e, mode)
		}
		if rel := m.entries[Relation(res.Class)]; rel != nil {
			m.noteHoldersLocked(id, rel, mode)
		}
	}
	return m.blockers
}

// noteHoldersLocked adds the entry's full-mode holders that block a
// request by id in mode to m.blockers. Caller holds m.mu.
func (m *Manager) noteHoldersLocked(id TxnID, e *entry, mode Mode) {
	for _, h := range e.holders {
		m.noteLocked(id, h.key, h.mode, mode)
	}
}

// noteLocked adds hid to m.blockers, in ID order, if its held mode
// blocks a request by id in mode, keeping its strongest such mode.
// Caller holds m.mu.
func (m *Manager) noteLocked(id, hid TxnID, held, mode Mode) {
	if hid == id || Compatible(m.scheme, held, mode) {
		return
	}
	i, found := slices.BinarySearchFunc(m.blockers, hid, func(b grant[TxnID], t TxnID) int { return cmp.Compare(b.key, t) })
	if found {
		m.blockers[i].mode = max(m.blockers[i].mode, held)
		return
	}
	m.blockers = slices.Insert(m.blockers, i, grant[TxnID]{hid, held})
}

// anySettlingLocked reports whether any of the transactions is aborted
// or gone — i.e. its locks are about to be released. Caller holds m.mu.
func (m *Manager) anySettlingLocked(hs []grant[TxnID]) bool {
	for _, h := range hs {
		if m.settlingLocked(h.key) {
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
	m.path, m.visited = m.path[:0], m.visited[:0]
	i := m.searchLocked(id)
	if i < 0 {
		return 0
	}
	return slices.Max(m.path[i:])
}

// searchLocked is the depth-first step of the deadlock search from
// cur along waitsOn edges, with the current path in m.path and every
// node entered in m.visited. It returns the index in m.path of the
// node a path back closes the cycle at, or -1. Edges are walked in ID
// order (waitsOn is sorted), so which cycle is found first, and so the
// victim, does not depend on the order blockers were found. Caller
// holds m.mu.
func (m *Manager) searchLocked(cur TxnID) int {
	if i := slices.Index(m.path, cur); i >= 0 {
		return i
	}
	if slices.Contains(m.visited, cur) {
		return -1
	}
	m.visited = append(m.visited, cur)
	tx := m.txns[cur]
	if tx == nil || tx.aborted {
		return -1
	}
	m.path = append(m.path, cur)
	for _, b := range tx.waitsOn {
		if i := m.searchLocked(b.key); i >= 0 {
			return i
		}
	}
	m.path = m.path[:len(m.path)-1]
	return -1
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
	tx.waitsOn = tx.waitsOn[:0]
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
	for _, h := range tx.held {
		if h.mode != Wa {
			continue
		}
		out = appendRcHolders(out, id, m.entries[h.key])
		if h.key.ID == RelationLevel {
			// A class-level Wa also victimises tuple-level Rc holders
			// inside the class: their intention marks carry the Rc bit.
			if rel := m.entries[h.key]; rel != nil {
				for _, in := range rel.intents {
					if in.id != id && in.bits&intentBit(Rc) != 0 {
						out = append(out, in.id)
					}
				}
			}
		} else {
			out = appendRcHolders(out, id, m.entries[Relation(h.key.Class)])
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

// appendRcHolders appends the entry's Rc holders other than id.
func appendRcHolders(out []TxnID, id TxnID, e *entry) []TxnID {
	if e == nil {
		return out
	}
	for _, h := range e.holders {
		if h.key != id && h.mode == Rc {
			out = append(out, h.key)
		}
	}
	return out
}

// End releases all of the transaction's locks in acquisition order,
// wakes the waiters of every class it held a lock in, forgets it and
// keeps its state for a later Begin. It is called at commit and after
// abort rollback.
func (m *Manager) End(id TxnID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tx := m.txns[id]
	if tx == nil {
		return
	}
	for _, h := range tx.held {
		res := h.key
		if e := m.entries[res]; e != nil {
			e.drop(id)
			m.retireLocked(res, e)
		}
		if res.ID != RelationLevel {
			// Drop the transaction from the class's relation entry.
			// Its intention mark stands for every tuple lock it holds
			// in the class, and End releases a relation-level lock
			// there too, so the first tuple of the class clears both
			// and the rest find nothing.
			relRes := Relation(res.Class)
			if rel := m.entries[relRes]; rel != nil {
				rel.drop(id)
				m.retireLocked(relRes, rel)
			}
		}
		m.wakeLocked(res.Class)
	}
	delete(m.txns, id)
	clear(tx.held)
	*tx = txnState{held: tx.held[:0], waitsOn: tx.waitsOn[:0]}
	m.freeTxns = append(m.freeTxns, tx)
}
