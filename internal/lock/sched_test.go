package lock

import (
	"reflect"
	"testing"
	"time"

	"pdps/internal/sched"
)

// TestScheduleIndependentOfManager: a controlled run's decisions
// depend only on the locks taken. T1 holds Wa on an alpha tuple, T2
// holds Wa on a beta tuple and a third request waits on beta; when T1
// ends, the waiter must stay parked, so the root's next scheduling
// point offers one candidate and records no decision. Every fresh
// manager must therefore record the same choices under the same
// policy.
func TestScheduleIndependentOfManager(t *testing.T) {
	alpha, beta := Resource{Class: "alpha", ID: 1}, Resource{Class: "beta", ID: 1}
	policy := sched.NewReplay(nil)
	var want []sched.Choice
	for i := 0; i < 300; i++ {
		det := sched.NewDet(policy)
		m := NewManager(SchemeRcRaWa)
		m.SetController(det)
		var errs []error
		note := func(err error) {
			if err != nil {
				errs = append(errs, err)
			}
		}
		if err := det.Run(func() {
			t1, t2, t3 := m.Begin(), m.Begin(), m.Begin()
			note(m.Acquire(t1, alpha, Wa))
			note(m.Acquire(t2, beta, Wa))
			done := make(chan struct{}, 1)
			det.Go("waiter", func() {
				note(m.Acquire(t3, beta, Wa))
				m.End(t3)
				signal(done)
			})
			det.Sleep(time.Millisecond) // the waiter runs and parks on beta
			m.End(t1)
			det.Yield("after alpha release")
			m.End(t2)
			det.Park("waiter done", done)
		}); err != nil {
			t.Fatalf("manager %d: %v", i, err)
		}
		if len(errs) > 0 {
			t.Fatalf("manager %d: %v", i, errs)
		}
		got := det.Choices()
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("manager %d recorded choices %v, manager 0 recorded %v", i, got, want)
		}
	}
}
