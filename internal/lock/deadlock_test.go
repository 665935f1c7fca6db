package lock

import (
	"errors"
	"sync"
	"testing"
)

// crossAcquire sets up the classic two-resource crossing: t1 holds q
// and requests r; t2 holds r and requests q. It returns the two
// Acquire errors. The two requests race deliberately: under wound-wait
// the prevention outcome is the same whichever request is processed
// first, so no ordering synchronisation is needed.
func crossAcquire(t *testing.T, m *Manager) (err1, err2 error, t1, t2 TxnID) {
	t.Helper()
	q := Resource{Class: "q", ID: 1}
	r := Resource{Class: "r", ID: 1}
	t1, t2 = m.Begin(), m.Begin()
	if err := m.Acquire(t1, q, Wa); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(t2, r, Wa); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		err1 = m.Acquire(t1, r, Wa)
		if err1 != nil {
			m.End(t1)
		}
	}()
	go func() {
		defer wg.Done()
		err2 = m.Acquire(t2, q, Wa)
		if err2 != nil {
			m.End(t2)
		}
	}()
	wg.Wait()
	return err1, err2, t1, t2
}

func TestWoundWaitOlderWoundsYounger(t *testing.T) {
	m := withMetrics(NewManagerPolicy(SchemeRcRaWa, DeadlockWoundWait))
	err1, err2, t1, t2 := crossAcquire(t, m)
	// t1 is older: it wounds t2 and must eventually acquire; t2 dies.
	if err1 != nil {
		t.Fatalf("older transaction failed: %v", err1)
	}
	if !errors.Is(err2, ErrDeadlock) && !errors.Is(err2, ErrAborted) {
		t.Fatalf("younger transaction got %v, want wound", err2)
	}
	if got := m.met.deadlocks.Value(); got < 1 {
		t.Fatalf("lock_deadlocks_total = %d, want >= 1 (the wound)", got)
	}
	m.End(t1)
	_ = t2
}

func TestWoundWaitYoungerWaits(t *testing.T) {
	// Younger requester blocked by older holder waits under wound-wait.
	m := withMetrics(NewManagerPolicy(SchemeRcRaWa, DeadlockWoundWait))
	q := Resource{Class: "q", ID: 1}
	t1, t2 := m.Begin(), m.Begin()
	if err := m.Acquire(t1, q, Wa); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(t2, q, Wa) }()
	waitForWaiters(t, m, 1)
	select {
	case err := <-done:
		t.Fatalf("younger requester returned early: %v", err)
	default:
	}
	if m.Aborted(t1) {
		t.Fatal("older holder must not be wounded by younger requester")
	}
	m.End(t1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	m.End(t2)
}

func TestPolicyString(t *testing.T) {
	if DeadlockDetect.String() != "detect" ||
		DeadlockWoundWait.String() != "wound-wait" ||
		DeadlockPolicy(9).String() == "" {
		t.Fatal("String() wrong")
	}
}
