package lock

import (
	"fmt"
	"testing"
	"time"

	"pdps/internal/obs"
)

// withMetrics attaches a fresh registry to m, so waitForWaiters can
// read its lock_waits_total series.
func withMetrics(m *Manager) *Manager {
	m.SetMetrics(obs.NewRegistry())
	return m
}

// waitForWaiters blocks until the manager has registered at least n
// blocked acquisitions. lock_waits_total is incremented after the
// waits-for edge is published and under the same manager mutex the
// waiter then registers its wakeup channel with, so once it reads n
// the blocked requests are visible to the deadlock machinery and a
// release that takes the mutex will wake them; the deadline
// bounds liveness only, not correctness. m must carry metrics
// (withMetrics).
func waitForWaiters(t *testing.T, m *Manager, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for m.met.waits.Value() < n {
		if time.Now().After(deadline) {
			t.Fatalf("lock_waits_total=%d after 5s, want >= %d", m.met.waits.Value(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TryAcquire is a non-blocking Acquire: it reports whether the lock was
// granted immediately.
func (m *Manager) TryAcquire(id TxnID, res Resource, mode Mode) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tx := m.txns[id]
	if tx == nil {
		return false, fmt.Errorf("lock: unknown transaction %d", id)
	}
	if tx.aborted {
		return false, tx.abortErr
	}
	if i := find(tx.held, res); i >= 0 && tx.held[i].mode >= mode {
		return true, nil
	}
	if len(m.blockersLocked(id, res, mode)) > 0 {
		return false, nil
	}
	m.grantLocked(tx, res, mode)
	return true, nil
}

// Held returns the modes the transaction currently holds.
func (m *Manager) Held(id TxnID) map[Resource]Mode {
	m.mu.Lock()
	defer m.mu.Unlock()
	tx := m.txns[id]
	if tx == nil {
		return nil
	}
	out := make(map[Resource]Mode, len(tx.held))
	for _, h := range tx.held {
		out[h.key] = h.mode
	}
	return out
}
