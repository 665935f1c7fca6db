package lock

import (
	"runtime"
	"testing"
)

// TestLockSteadyStateAllocs holds the lock table to no allocation per
// lock once it has warmed up: entries, holder slices, transactions and
// blocker sets are all reused. A round is two firings' worth of lock
// traffic on one tuple — Begin, Rc for both, an upgrade to Wa beside
// the other's Rc (Table 4.1), both Ends. A request that blocks and is
// woken allocates one thing, its wait channel, which stays per wait
// (see Acquire).
func TestLockSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates; allocation ceilings run without -race")
	}
	m := withMetrics(NewManager(SchemeRcRaWa))
	q := Resource{Class: "q", ID: 1}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	round := func() {
		t1, t2 := m.Begin(), m.Begin()
		must(m.Acquire(t1, q, Rc))
		must(m.Acquire(t2, q, Rc))
		must(m.Acquire(t1, q, Wa))
		m.End(t1)
		m.End(t2)
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("uncontended round: %v allocations, want 0", n)
	}

	// The releaser ends the holder once the request has blocked. It
	// spins instead of sleeping so it allocates nothing itself.
	type hold struct {
		txn   TxnID
		waits int64
	}
	holds := make(chan hold)
	released := make(chan struct{})
	defer close(holds)
	go func() {
		for h := range holds {
			for m.met.waits.Value() < h.waits {
				runtime.Gosched()
			}
			m.End(h.txn)
			released <- struct{}{}
		}
	}()
	blocked := func() {
		t1, t2 := m.Begin(), m.Begin()
		must(m.Acquire(t1, q, Wa))
		holds <- hold{t1, m.met.waits.Value() + 1}
		must(m.Acquire(t2, q, Rc)) // Wa held: waits for the release
		<-released
		m.End(t2)
	}
	// Two warm-up rounds, this one and AllocsPerRun's own: the free
	// list hands the two transactions back in swapped roles, so each
	// must have waited once before its waitsOn has grown.
	blocked()
	n := testing.AllocsPerRun(100, blocked)
	t.Logf("blocked-then-woken round: %v allocations", n)
	if n > 1 {
		t.Errorf("blocked-then-woken round: %v allocations, want at most 1 (the wait channel)", n)
	}
}

// TestLockTableBounded: what the manager retains after a run depends
// on how many locks were held at once, not on how many were taken. Runs
// of n and 4n transactions over distinct tuples, at most k open at a
// time, leave the same number of entries and transactions on the free
// lists, none live, and no more entries than the peak of locks held.
func TestLockTableBounded(t *testing.T) {
	const n, k = 100, 8
	type kept struct{ live, free, txns, peak int }
	run := func(n int) kept {
		m := NewManager(SchemeRcRaWa)
		var open []TxnID
		var peak int
		for i := 1; i <= n; i++ {
			if len(open) == k {
				m.End(open[0])
				open = open[1:]
			}
			tx := m.Begin()
			open = append(open, tx)
			tuple := Resource{Class: "t", ID: int64(i)}
			for _, l := range []struct {
				res  Resource
				mode Mode
			}{{tuple, Rc}, {Relation("neg"), Rc}, {tuple, Wa}} {
				if err := m.Acquire(tx, l.res, l.mode); err != nil {
					t.Fatal(err)
				}
			}
			held := 0
			for _, o := range open {
				held += len(m.Held(o))
			}
			peak = max(peak, held)
		}
		for _, o := range open {
			m.End(o)
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		if len(m.txns) != 0 {
			t.Fatalf("%d transactions still registered", len(m.txns))
		}
		return kept{len(m.entries), len(m.freeEntries), len(m.freeTxns), peak}
	}
	short, long := run(n), run(4*n)
	t.Logf("retained %+v", short)
	if short != long {
		t.Fatalf("retained after %d transactions %+v, after %d %+v: want equal", n, short, 4*n, long)
	}
	if short.live != 0 || short.free > short.peak || short.txns > k {
		t.Fatalf("retained %+v: want no live entry, at most %d free entries and %d transactions", short, short.peak, k)
	}
}
