package lock

import "fmt"

// DeadlockPolicy selects how the manager handles blocked acquisitions.
// The paper (Section 4.3) observes that the non-exclusive Rc lock
// introduces no new deadlocks, so "the deadlock prevention, avoidance,
// detection or resolution schemes for standard 2-phase locking can be
// applied" — detection and one prevention scheme are provided.
type DeadlockPolicy uint8

const (
	// DeadlockDetect (default) builds the waits-for graph on demand
	// and aborts the youngest transaction of any cycle.
	DeadlockDetect DeadlockPolicy = iota
	// DeadlockWoundWait is the preemptive prevention scheme: an older
	// requester wounds (aborts) younger lock holders; a younger
	// requester waits for older holders. No cycles can form.
	DeadlockWoundWait
)

// String names the policy.
func (p DeadlockPolicy) String() string {
	switch p {
	case DeadlockDetect:
		return "detect"
	case DeadlockWoundWait:
		return "wound-wait"
	}
	return fmt.Sprintf("DeadlockPolicy(%d)", uint8(p))
}

// resolveBlockedLocked applies the deadlock policy for transaction id
// blocked by the given transactions. It returns abortSelf=true when
// the requester must give up with ErrDeadlock; otherwise the requester
// should (re-)wait. Caller holds m.mu. Blockers already aborted are
// left alone — their locks are about to be released, so the requester
// just waits for the release.
func (m *Manager) resolveBlockedLocked(id TxnID, blockers []grant[TxnID]) (abortSelf bool) {
	if m.policy == DeadlockWoundWait {
		// Wound every younger blocker; wait on older ones.
		for _, b := range blockers {
			if b.key > id && !m.settlingLocked(b.key) {
				m.abortLocked(b.key, ErrDeadlock)
				m.met.deadlock()
			}
		}
		return false
	}
	if victim := m.findDeadlockVictimLocked(id); victim != 0 {
		m.abortLocked(victim, ErrDeadlock)
		m.met.deadlock()
		return victim == id
	}
	return false
}
