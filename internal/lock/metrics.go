package lock

import (
	"pdps/internal/obs"
	"pdps/internal/sched"
)

// metrics holds the manager's cached obs handles. All methods are
// nil-safe so an uninstrumented manager (tests, direct construction)
// pays only a nil check on the hot path.
type metrics struct {
	txns      *obs.Counter
	acquires  [3]*obs.Counter // indexed by Mode
	waits     *obs.Counter
	waitNS    *obs.Histogram
	deadlocks *obs.Counter
	txnAborts *obs.Counter
	rcVictims *obs.Counter
	// conflicts counts blocked or commit-resolved lock conflicts by
	// (held, requested) mode pair — the paper's "degree of conflict"
	// factor (Section 5.1) made observable. Indexed [held][requested].
	conflicts [3][3]*obs.Counter
}

// newMetrics registers the lock-layer series in reg and caches their
// handles; every series exists from the start (at zero), so snapshot
// shape does not depend on which conflicts happened to occur.
func newMetrics(reg *obs.Registry) *metrics {
	mt := &metrics{
		txns:      reg.Counter("lock_txns_total"),
		waits:     reg.Counter("lock_waits_total"),
		waitNS:    reg.Histogram("lock_wait_ns", "ns"),
		deadlocks: reg.Counter("lock_deadlocks_total"),
		txnAborts: reg.Counter("lock_txn_aborts_total"),
		rcVictims: reg.Counter("lock_rc_victims_total"),
	}
	for m := Rc; m <= Wa; m++ {
		mt.acquires[m] = reg.Counter("lock_acquires_total", obs.L("mode", m.String()))
		for r := Rc; r <= Wa; r++ {
			mt.conflicts[m][r] = reg.Counter("lock_conflicts_total",
				obs.L("modes", m.String()+"/"+r.String()))
		}
	}
	return mt
}

func (mt *metrics) begin() {
	if mt != nil {
		mt.txns.Inc()
	}
}

func (mt *metrics) grant(mode Mode) {
	if mt != nil {
		mt.acquires[mode].Inc()
	}
}

func (mt *metrics) wait() {
	if mt != nil {
		mt.waits.Inc()
	}
}

// conflict records one blocked request: for each blocker, the
// (held, requested) pair it contributed.
func (mt *metrics) conflict(blockers []grant[TxnID], req Mode) {
	if mt == nil {
		return
	}
	for _, b := range blockers {
		mt.conflicts[b.mode][req].Inc()
	}
}

// rcVictim records one commit-time Rc abort (Section 4.3 rule (ii)).
// Under SchemeRcRaWa the Rc–Wa conflict never blocks (Table 4.1 grants
// it), so it is counted here, where it materialises, into the same
// Rc/Wa series a blocking scheme would use — keeping the conflict
// metric comparable across schemes.
func (mt *metrics) rcVictim() {
	if mt != nil {
		mt.rcVictims.Inc()
		mt.conflicts[Rc][Wa].Inc()
	}
}

func (mt *metrics) deadlock() {
	if mt != nil {
		mt.deadlocks.Inc()
	}
}

func (mt *metrics) txnAbort() {
	if mt != nil {
		mt.txnAborts.Inc()
	}
}

// SetMetrics registers the manager's metric series in reg and starts
// recording into them. Call before any Begin; a manager without
// metrics records nothing.
func (m *Manager) SetMetrics(reg *obs.Registry) { m.met = newMetrics(reg) }

// SetClock installs the time source used for the lock-wait histogram.
// The engine passes its resolved Options.Clock, so under a
// deterministic scheduler waits are measured in virtual time and the
// histogram is replay-stable. A nil clock (the default) disables wait
// timing but not wait counting.
func (m *Manager) SetClock(c sched.Clock) { m.clock = c }
