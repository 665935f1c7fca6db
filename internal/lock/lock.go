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
// The lock tables are sharded by class hash: each shard has its own
// mutex, waiter list and entry maps, so transactions locking
// resources of different classes never contend on manager state. A
// tuple-level resource and its class's relation-level resource always
// land in the same shard, which keeps the tuple/relation escalation
// checks and the commit-time RcVictims scan atomic per class. A
// process-wide transaction registry (its own mutex) carries the
// waits-for graph, so the deadlock detector and the wound-wait /
// wait-die policies still see every shard's waiters.
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
	"hash/maphash"
	"sort"
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

// txnState is one live transaction. held, aborted, abortErr, ending
// and waitsOn are guarded by the registry mutex; id is immutable.
type txnState struct {
	id       TxnID
	held     map[Resource]Mode
	aborted  bool
	abortErr error
	// ending marks a transaction inside End: its locks are about to be
	// released, so blocked requesters wait for the release broadcast
	// instead of wounding it or dying because of it.
	ending bool
	// waitsOn maps each transaction currently blocking this one to the
	// lock mode it holds; rebuilt on every blocked-acquire iteration.
	waitsOn map[TxnID]Mode
	// waitCh, when non-nil, is the channel the transaction's Acquire is
	// (about to be) blocked on; abortLocked signals it so a targeted
	// abort reaches exactly the right waiter without touching any
	// shard. Set and cleared under the registry mutex.
	waitCh chan struct{}
}

// signal delivers a non-blocking wakeup on a one-slot channel. Unlike
// close, it can be sent any number of times (broadcast on release plus
// a targeted abort may both hit the same waiter).
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

// shard is one slice of the lock tables: every resource whose class
// hashes here, tuple- and relation-level alike.
type shard struct {
	mu      sync.Mutex
	entries map[Resource]*entry

	// waiters holds one one-slot channel per blocked Acquire iteration;
	// a release broadcast signals and clears them all. Channel waiters
	// (rather than a sync.Cond) let a deterministic controller park on
	// the same primitive the free-running path blocks on.
	waiters []chan struct{}
}

// broadcastLocked wakes every waiter registered with the shard. Caller
// holds s.mu.
func (s *shard) broadcastLocked() {
	for _, ch := range s.waiters {
		signal(ch)
	}
	s.waiters = s.waiters[:0]
}

// DefaultShards is the lock-table shard count of every Manager.
const DefaultShards = 16

// Manager is the sharded lock manager. All methods are safe for
// concurrent use.
//
// Lock ordering: a shard mutex may be held while taking the registry
// mutex, never the reverse, and shard mutexes are never nested.
type Manager struct {
	scheme Scheme
	policy DeadlockPolicy
	shards []*shard
	seed   maphash.Seed
	// ctl, when non-nil, is the deterministic scheduling controller:
	// Acquire yields to it on entry (every lock request is a scheduling
	// point) and parks through it instead of blocking natively.
	ctl sched.Controller
	// met, when non-nil, holds the cached obs metric handles; clock,
	// when non-nil, times lock waits (virtual time under sched).
	met   *metrics
	clock sched.Clock

	reg struct {
		sync.Mutex
		txns   map[TxnID]*txnState
		nextID TxnID
	}
}

// NewManager returns a lock manager using the given scheme and the
// default deadlock policy (detection with youngest-victim abort).
func NewManager(s Scheme) *Manager {
	return NewManagerPolicy(s, DeadlockDetect)
}

// NewManagerPolicy returns a lock manager with an explicit deadlock
// policy and DefaultShards lock-table shards.
func NewManagerPolicy(s Scheme, p DeadlockPolicy) *Manager {
	m := &Manager{scheme: s, policy: p, seed: maphash.MakeSeed()}
	m.shards = make([]*shard, DefaultShards)
	for i := range m.shards {
		m.shards[i] = &shard{entries: make(map[Resource]*entry)}
	}
	m.reg.txns = make(map[TxnID]*txnState)
	return m
}

// SetController installs a deterministic scheduling controller. Call
// it before any Acquire; a nil controller (the default) leaves the
// manager free-running.
func (m *Manager) SetController(c sched.Controller) { m.ctl = c }

// shardFor maps a class to its lock-table shard.
func (m *Manager) shardFor(class string) *shard {
	return m.shards[maphash.String(m.seed, class)%uint64(len(m.shards))]
}

// txn looks up a transaction in the registry.
func (m *Manager) txn(id TxnID) *txnState {
	m.reg.Lock()
	defer m.reg.Unlock()
	return m.reg.txns[id]
}

// Begin registers a new transaction and returns its ID.
func (m *Manager) Begin() TxnID {
	m.reg.Lock()
	defer m.reg.Unlock()
	m.reg.nextID++
	id := m.reg.nextID
	m.reg.txns[id] = &txnState{id: id, held: make(map[Resource]Mode)}
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
	s := m.shardFor(res.Class)
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
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		m.reg.Lock()
		tx.waitCh = nil
		if tx.aborted {
			tx.waitsOn = nil
			err := tx.abortErr
			m.reg.Unlock()
			finishWait()
			return err
		}
		if cur, held := tx.held[res]; held && cur >= mode {
			tx.waitsOn = nil
			m.reg.Unlock()
			finishWait()
			return nil
		}
		m.reg.Unlock()
		blockers := m.blockersLocked(s, id, res, mode)
		if len(blockers) == 0 {
			m.grantLocked(s, tx, res, mode)
			if waited {
				// Wake others: the wait graph changed.
				s.broadcastLocked()
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
		m.reg.Lock()
		tx.waitsOn = blockers
		abortSelf := m.resolveBlockedLocked(id, blockers)
		if abortSelf {
			tx.waitsOn = nil
			m.reg.Unlock()
			finishWait()
			return ErrDeadlock
		}
		if tx.aborted {
			// Aborted by the policy resolution itself or by a concurrent
			// commit; loop back to the top, which returns the abort error.
			m.reg.Unlock()
			continue
		}
		settling := m.anySettlingLocked(blockers)
		// Register the wakeup channel while still holding the registry
		// mutex: abortLocked signals tx.waitCh, and the aborted re-check
		// above ran in this same critical section, so an abort either
		// happened before (we saw it) or will signal the channel.
		ch := make(chan struct{}, 1)
		tx.waitCh = ch
		m.reg.Unlock()
		if !settling && !waited {
			// A blocker may be aborted (wounded by prevention, chosen by
			// detection) or already releasing; it holds its locks until
			// its owner finishes End, so wait for the release broadcast
			// like any other waiter — but skip the wait-counter so
			// retried checks are not double-counted.
			waited = true
			m.met.wait()
			if m.clock != nil {
				waitStart = m.clock.Now()
			}
		}
		// Register with the shard before releasing its mutex: a release
		// broadcast after this point signals ch, and one before it was
		// observed by blockersLocked. No wakeup can be lost.
		s.waiters = append(s.waiters, ch)
		s.mu.Unlock()
		if m.ctl != nil {
			m.ctl.Park("lockwait:"+res.String(), ch)
		} else {
			<-ch
		}
		s.mu.Lock()
	}
}

// grantLocked records the lock; caller holds s.mu. A tuple-level grant
// also marks the transaction's intention mode on the class's relation
// entry, so relation-level requests and commit-time victim scans read
// one entry instead of walking the class's tuple entries.
func (m *Manager) grantLocked(s *shard, tx *txnState, res Resource, mode Mode) {
	e := s.entries[res]
	if e == nil {
		e = &entry{holders: make(map[TxnID]Mode)}
		s.entries[res] = e
	}
	if cur, ok := e.holders[tx.id]; !ok || mode > cur {
		e.holders[tx.id] = mode
	}
	if res.ID != RelationLevel {
		rel := s.entries[Relation(res.Class)]
		if rel == nil {
			rel = &entry{holders: make(map[TxnID]Mode)}
			s.entries[Relation(res.Class)] = rel
		}
		if rel.intents == nil {
			rel.intents = make(map[TxnID]uint8)
		}
		rel.intents[tx.id] |= intentBit(mode)
	}
	m.reg.Lock()
	if cur, ok := tx.held[res]; !ok || mode > cur {
		tx.held[res] = mode
	}
	tx.waitsOn = nil
	m.reg.Unlock()
	m.met.grant(mode)
}

// blockersLocked returns the transactions whose held locks are
// incompatible with the request, mapped to the strongest such held
// mode (for the conflict-by-mode-pair metric), considering the
// tuple/relation hierarchy. A tuple-level request checks its own entry
// plus the relation entry's full-mode holders; a relation-level
// request checks the relation entry's full-mode holders plus its
// intention marks, each judged by the underlying tuple mode. Caller
// holds s.mu; the class's tuple- and relation-level entries all live
// in s.
func (m *Manager) blockersLocked(s *shard, id TxnID, res Resource, mode Mode) map[TxnID]Mode {
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
		rel := s.entries[res]
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
		collect(s.entries[res])
		collect(s.entries[Relation(res.Class)])
	}
	if len(blockers) == 0 {
		return nil
	}
	return blockers
}

// anySettlingLocked reports whether any of the transactions is aborted
// or ending — i.e. its locks are about to be released. Caller holds
// the registry mutex.
func (m *Manager) anySettlingLocked(ids map[TxnID]Mode) bool {
	for id := range ids {
		tx := m.reg.txns[id]
		if tx == nil || tx.aborted || tx.ending {
			return true
		}
	}
	return false
}

// findDeadlockVictimLocked looks for a waits-for cycle through id and
// returns the youngest transaction in the cycle, or 0 if none. Caller
// holds the registry mutex.
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
		tx := m.reg.txns[cur]
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
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
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
	victim := cycle[0]
	for _, t := range cycle[1:] {
		if t > victim {
			victim = t
		}
	}
	return victim
}

// abortLocked marks a transaction aborted and signals its pending
// Acquire, if any, through the per-transaction wait channel — a
// targeted wakeup needing no shard mutex (replacing the old
// broadcast-every-shard-from-a-goroutine scheme, which was both a
// thundering herd and a source of scheduling nondeterminism). The
// transaction's locks remain held until End is called (the owner must
// roll back first). Caller holds the registry mutex.
func (m *Manager) abortLocked(id TxnID, err error) {
	tx := m.reg.txns[id]
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
	m.reg.Lock()
	defer m.reg.Unlock()
	m.abortLocked(id, ErrAborted)
}

// Aborted reports whether the transaction has been marked aborted.
func (m *Manager) Aborted(id TxnID) bool {
	m.reg.Lock()
	defer m.reg.Unlock()
	tx := m.reg.txns[id]
	return tx != nil && tx.aborted
}

// RcVictims returns the transactions holding Rc locks that conflict
// with the given transaction's Wa locks — the productions that must be
// forced to abort when this transaction commits first (Section 4.3,
// rule (ii)). It is only meaningful under SchemeRcRaWa; under 2PL the
// conflict cannot arise and the result is always empty.
//
// The scan is atomic per class: while the transaction holds Wa on a
// resource, no new Rc can be granted on it (Table 4.1), so scanning
// each class's shard under its own mutex loses no victim.
func (m *Manager) RcVictims(id TxnID) []TxnID {
	m.reg.Lock()
	tx := m.reg.txns[id]
	if tx == nil {
		m.reg.Unlock()
		return nil
	}
	waRes := make([]Resource, 0, len(tx.held))
	for res, mode := range tx.held {
		if mode == Wa {
			waRes = append(waRes, res)
		}
	}
	m.reg.Unlock()

	victims := make(map[TxnID]bool)
	scan := func(e *entry) {
		if e == nil {
			return
		}
		for hid, held := range e.holders {
			if hid != id && held == Rc {
				victims[hid] = true
			}
		}
	}
	byShard := make(map[*shard][]Resource)
	for _, res := range waRes {
		s := m.shardFor(res.Class)
		byShard[s] = append(byShard[s], res)
	}
	for s, rs := range byShard {
		s.mu.Lock()
		for _, res := range rs {
			scan(s.entries[res])
			if res.ID == RelationLevel {
				// A class-level Wa also victimises tuple-level Rc holders
				// inside the class: their intention marks carry the Rc bit.
				if rel := s.entries[res]; rel != nil {
					for hid, bits := range rel.intents {
						if hid != id && bits&intentBit(Rc) != 0 {
							victims[hid] = true
						}
					}
				}
			} else {
				scan(s.entries[Relation(res.Class)])
			}
		}
		s.mu.Unlock()
	}
	out := make([]TxnID, 0, len(victims))
	for v := range victims {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	for range out {
		// Each victim is one Rc–Wa conflict resolved at commit time
		// (rule (ii)); count it into the same series a blocking scheme
		// feeds, so "degree of conflict" is comparable across schemes.
		m.met.rcVictim()
	}
	return out
}

// End releases all of the transaction's locks and forgets it. It is
// called at commit and after abort rollback.
func (m *Manager) End(id TxnID) {
	m.reg.Lock()
	tx := m.reg.txns[id]
	if tx == nil {
		m.reg.Unlock()
		return
	}
	tx.ending = true
	byShard := make(map[*shard][]Resource)
	for res := range tx.held {
		s := m.shardFor(res.Class)
		byShard[s] = append(byShard[s], res)
	}
	m.reg.Unlock()

	for s, rs := range byShard {
		s.mu.Lock()
		for _, res := range rs {
			if e := s.entries[res]; e != nil {
				delete(e.holders, id)
				if !e.live() {
					delete(s.entries, res)
				}
			}
			if res.ID != RelationLevel {
				// Drop the intention mark; the whole class's tuple locks are
				// released together here, so one delete per class would do,
				// but per-resource keeps this loop shape simple.
				relRes := Relation(res.Class)
				if rel := s.entries[relRes]; rel != nil {
					delete(rel.intents, id)
					if !rel.live() {
						delete(s.entries, relRes)
					}
				}
			}
		}
		s.broadcastLocked()
		s.mu.Unlock()
	}

	m.reg.Lock()
	delete(m.reg.txns, id)
	m.reg.Unlock()
}
