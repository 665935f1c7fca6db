package lock

import (
	"errors"
	"testing"

	"pdps/internal/obs"
)

func TestCompatibilityTable41(t *testing.T) {
	// Table 4.1 (held row, requested column) for the improved scheme:
	//        Rc  Ra  Wa
	//   Rc    Y   Y   Y
	//   Ra    Y   Y   N
	//   Wa    N   N   N
	want := map[[2]Mode]bool{
		{Rc, Rc}: true, {Rc, Ra}: true, {Rc, Wa}: true,
		{Ra, Rc}: true, {Ra, Ra}: true, {Ra, Wa}: false,
		{Wa, Rc}: false, {Wa, Ra}: false, {Wa, Wa}: false,
	}
	for pair, ok := range want {
		if got := Compatible(SchemeRcRaWa, pair[0], pair[1]); got != ok {
			t.Errorf("RcRaWa: held %s, request %s: got %v, want %v", pair[0], pair[1], got, ok)
		}
	}
	// Under 2PL, Rc degenerates to a shared read lock: Rc–Wa conflicts.
	if Compatible(Scheme2PL, Rc, Wa) {
		t.Error("2PL: held Rc must block Wa")
	}
	if Compatible(Scheme2PL, Wa, Rc) {
		t.Error("2PL: held Wa must block Rc")
	}
	if !Compatible(Scheme2PL, Rc, Ra) || !Compatible(Scheme2PL, Ra, Rc) {
		t.Error("2PL: shared reads must be compatible")
	}
}

func TestAcquireSharedAndUpgrade(t *testing.T) {
	m := NewManager(SchemeRcRaWa)
	q := Resource{Class: "q", ID: 1}
	t1, t2 := m.Begin(), m.Begin()
	if err := m.Acquire(t1, q, Rc); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(t2, q, Rc); err != nil {
		t.Fatal(err)
	}
	// Upgrade t1 to Wa: allowed even though t2 holds Rc (the paper's key
	// liberality).
	if err := m.Acquire(t1, q, Wa); err != nil {
		t.Fatal(err)
	}
	if m.Held(t1)[q] != Wa {
		t.Fatalf("t1 mode = %v, want Wa", m.Held(t1)[q])
	}
	// t2 is now the Rc victim of t1's eventual commit.
	victims := m.RcVictims(t1)
	if len(victims) != 1 || victims[0] != t2 {
		t.Fatalf("RcVictims = %v, want [%d]", victims, t2)
	}
	m.End(t1)
	m.End(t2)
}

func TestWaBlocksUntilRelease(t *testing.T) {
	m := withMetrics(NewManager(SchemeRcRaWa))
	q := Resource{Class: "q", ID: 1}
	t1, t2 := m.Begin(), m.Begin()
	if err := m.Acquire(t1, q, Wa); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.Acquire(t2, q, Rc) }()
	waitForWaiters(t, m, 1)
	select {
	case err := <-got:
		t.Fatalf("Rc against held Wa must block, returned %v", err)
	default:
	}
	m.End(t1)
	if err := <-got; err != nil {
		t.Fatalf("after release: %v", err)
	}
	m.End(t2)
}

func TestRaBlocksWa(t *testing.T) {
	m := NewManager(SchemeRcRaWa)
	q := Resource{Class: "q", ID: 1}
	t1, t2 := m.Begin(), m.Begin()
	if err := m.Acquire(t1, q, Ra); err != nil {
		t.Fatal(err)
	}
	ok, err := m.TryAcquire(t2, q, Wa)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Wa against held Ra must be refused")
	}
	m.End(t1)
	ok, err = m.TryAcquire(t2, q, Wa)
	if err != nil || !ok {
		t.Fatalf("after release: ok=%v err=%v", ok, err)
	}
	m.End(t2)
}

func TestDeadlockDetectionAbortsYoungest(t *testing.T) {
	m := withMetrics(NewManager(SchemeRcRaWa))
	q := Resource{Class: "q", ID: 1}
	r := Resource{Class: "r", ID: 1}
	t1, t2 := m.Begin(), m.Begin()
	if err := m.Acquire(t1, q, Wa); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(t2, r, Wa); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- m.Acquire(t1, r, Wa) }()
	waitForWaiters(t, m, 1)
	go func() { errs <- m.Acquire(t2, q, Wa) }()

	// Exactly one of the two must get ErrDeadlock; the other succeeds
	// after the victim releases.
	var deadlocked, succeeded int
	for i := 0; i < 2; i++ {
		err := <-errs
		switch {
		case errors.Is(err, ErrDeadlock):
			deadlocked++
			// Victim must be the youngest, t2.
			if !m.Aborted(t2) {
				t.Error("victim should be the youngest transaction")
			}
			m.End(t2)
		case err == nil:
			succeeded++
		default:
			t.Fatalf("unexpected error %v", err)
		}
	}
	if deadlocked != 1 || succeeded != 1 {
		t.Fatalf("deadlocked=%d succeeded=%d", deadlocked, succeeded)
	}
	m.End(t1)
}

func TestAbortWakesWaiter(t *testing.T) {
	m := withMetrics(NewManager(SchemeRcRaWa))
	q := Resource{Class: "q", ID: 1}
	t1, t2 := m.Begin(), m.Begin()
	if err := m.Acquire(t1, q, Wa); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.Acquire(t2, q, Wa) }()
	waitForWaiters(t, m, 1)
	m.Abort(t2)
	if err := <-got; !errors.Is(err, ErrAborted) {
		t.Fatalf("aborted waiter got %v, want ErrAborted", err)
	}
	if !m.Aborted(t2) {
		t.Fatal("Aborted not reported")
	}
	m.End(t2)
	m.End(t1)
}

func TestRelationLevelEscalation(t *testing.T) {
	m := NewManager(SchemeRcRaWa)
	rel := Relation("part")
	tup := Resource{Class: "part", ID: 7}
	other := Resource{Class: "machine", ID: 7}

	t1, t2, t3 := m.Begin(), m.Begin(), m.Begin()
	// Relation-level Rc (a negated condition on class part).
	if err := m.Acquire(t1, rel, Rc); err != nil {
		t.Fatal(err)
	}
	// A tuple-level Wa in the same class IS granted under RcRaWa (the
	// Rc holder becomes a commit-time victim instead).
	if err := m.Acquire(t2, tup, Wa); err != nil {
		t.Fatal(err)
	}
	victims := m.RcVictims(t2)
	if len(victims) != 1 || victims[0] != t1 {
		t.Fatalf("RcVictims = %v, want [%d]", victims, t1)
	}
	// A tuple Wa in a different class does not touch the Rc holder.
	if err := m.Acquire(t3, other, Wa); err != nil {
		t.Fatal(err)
	}
	if v := m.RcVictims(t3); len(v) != 0 {
		t.Fatalf("cross-class victims = %v, want none", v)
	}
	m.End(t1)
	m.End(t2)
	m.End(t3)
}

func TestRelationLevelEscalation2PLBlocks(t *testing.T) {
	m := NewManager(Scheme2PL)
	t1, t2 := m.Begin(), m.Begin()
	if err := m.Acquire(t1, Relation("part"), Rc); err != nil {
		t.Fatal(err)
	}
	ok, err := m.TryAcquire(t2, Resource{Class: "part", ID: 3}, Wa)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("2PL: tuple Wa must be blocked by relation-level Rc")
	}
	// And the reverse: tuple Wa held blocks relation Rc.
	m.End(t1)
	if err := m.Acquire(t2, Resource{Class: "part", ID: 3}, Wa); err != nil {
		t.Fatal(err)
	}
	ok, err = m.TryAcquire(t1, Relation("part"), Rc)
	if err == nil && ok {
		t.Fatal("relation Rc must be blocked by tuple Wa")
	}
	m.End(t2)
}

func TestRcVictimsEmptyUnder2PL(t *testing.T) {
	// Under 2PL the Rc–Wa coexistence cannot arise, so a committing
	// writer never has victims.
	m := NewManager(Scheme2PL)
	q := Resource{Class: "q", ID: 1}
	t1 := m.Begin()
	if err := m.Acquire(t1, q, Wa); err != nil {
		t.Fatal(err)
	}
	if v := m.RcVictims(t1); len(v) != 0 {
		t.Fatalf("victims under 2PL = %v", v)
	}
	m.End(t1)
}

func TestAcquireIdempotentAndUnknownTxn(t *testing.T) {
	m := NewManager(SchemeRcRaWa)
	q := Resource{Class: "q", ID: 1}
	t1 := m.Begin()
	if err := m.Acquire(t1, q, Ra); err != nil {
		t.Fatal(err)
	}
	// Re-acquiring an equal or weaker mode is a no-op.
	if err := m.Acquire(t1, q, Ra); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(t1, q, Rc); err != nil {
		t.Fatal(err)
	}
	if m.Held(t1)[q] != Ra {
		t.Fatal("weaker re-acquire must not downgrade")
	}
	if err := m.Acquire(999, q, Rc); err == nil {
		t.Fatal("unknown txn must error")
	}
	if _, err := m.TryAcquire(999, q, Rc); err == nil {
		t.Fatal("unknown txn must error in TryAcquire")
	}
	m.End(t1)
	m.End(999) // no-op
}

// TestStatsCounters pins the lock_* series as the manager's one count
// per event: one blocked request is one wait, each grant one acquire,
// and an abort one lock_txn_aborts_total increment.
func TestStatsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewManager(SchemeRcRaWa)
	m.SetMetrics(reg)
	q := Resource{Class: "q", ID: 1}
	t1, t2 := m.Begin(), m.Begin()
	if err := m.Acquire(t1, q, Wa); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(t2, q, Wa) }()
	waitForWaiters(t, m, 1)
	m.End(t1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	m.Abort(t2)
	m.End(t2)
	s := reg.Snapshot()
	for _, c := range []struct {
		name   string
		labels []obs.Label
		want   int64
	}{
		{"lock_txns_total", nil, 2},
		{"lock_acquires_total", []obs.Label{obs.L("mode", "Wa")}, 2},
		{"lock_waits_total", nil, 1},
		{"lock_conflicts_total", []obs.Label{obs.L("modes", "Wa/Wa")}, 1},
		{"lock_txn_aborts_total", nil, 1},
		{"lock_deadlocks_total", nil, 0},
	} {
		if got := s.Counter(c.name, c.labels...); got != c.want {
			t.Errorf("%s%v = %d, want %d", c.name, c.labels, got, c.want)
		}
	}
}
