package lock

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// TestStressInvariants hammers the manager from many goroutines and
// checks the mode-coexistence invariants after every grant:
//
//   - at most one Wa holder per resource (both schemes);
//   - no Ra holder while another holds Wa (both schemes);
//   - under 2PL additionally no Rc holder while another holds Wa;
//   - under Rc/Ra/Wa, Rc–Wa coexistence IS allowed (the paper's
//     liberality) but Rc holders must then appear in RcVictims.
func TestStressInvariants(t *testing.T) {
	for _, scheme := range []Scheme{Scheme2PL, SchemeRcRaWa} {
		for _, policy := range []DeadlockPolicy{DeadlockDetect, DeadlockWoundWait} {
			t.Run(scheme.String()+"/"+policy.String(), func(t *testing.T) {
				m := NewManagerPolicy(scheme, policy)
				resources := []Resource{
					{Class: "a", ID: 1}, {Class: "a", ID: 2},
					{Class: "b", ID: 1}, Relation("a"),
				}
				var mu sync.Mutex // guards holders mirror
				holders := make(map[Resource]map[TxnID]Mode)

				checkInvariants := func() {
					for res, hs := range holders {
						var waCount int
						for _, md := range hs {
							if md == Wa {
								waCount++
							}
						}
						if waCount > 1 {
							t.Errorf("%v: two Wa holders", res)
						}
						if waCount == 1 {
							for id, md := range hs {
								if md == Ra {
									t.Errorf("%v: Ra held by %d alongside Wa", res, id)
								}
								if md == Rc && scheme == Scheme2PL {
									t.Errorf("%v: Rc held by %d alongside Wa under 2PL", res, id)
								}
							}
						}
					}
				}

				var wg sync.WaitGroup
				for w := 0; w < 6; w++ {
					wg.Add(1)
					go func(seed int64) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(seed))
						for i := 0; i < 150; i++ {
							txn := m.Begin()
							granted := make(map[Resource]Mode)
							n := 1 + rng.Intn(3)
							ok := true
							for j := 0; j < n && ok; j++ {
								res := resources[rng.Intn(len(resources))]
								mode := Mode(rng.Intn(3))
								err := m.Acquire(txn, res, mode)
								switch {
								case err == nil:
									if cur, has := granted[res]; !has || mode > cur {
										granted[res] = mode
									}
									mu.Lock()
									if holders[res] == nil {
										holders[res] = make(map[TxnID]Mode)
									}
									if cur, has := holders[res][txn]; !has || mode > cur {
										holders[res][txn] = mode
									}
									checkInvariants()
									mu.Unlock()
								case errors.Is(err, ErrDeadlock) || errors.Is(err, ErrAborted):
									ok = false
								default:
									t.Errorf("unexpected acquire error: %v", err)
									ok = false
								}
							}
							if ok && scheme == SchemeRcRaWa {
								// Every Rc holder overlapping one of our Wa
								// resources must be listed as a victim.
								victims := make(map[TxnID]bool)
								for _, v := range m.RcVictims(txn) {
									victims[v] = true
								}
								mu.Lock()
								for res, md := range granted {
									if md != Wa {
										continue
									}
									for hid, hmd := range holders[res] {
										if hid != txn && hmd == Rc && !victims[hid] {
											t.Errorf("Rc holder %d of %v missing from victims", hid, res)
										}
									}
								}
								mu.Unlock()
							}
							mu.Lock()
							for res := range holders {
								delete(holders[res], txn)
							}
							mu.Unlock()
							m.End(txn)
						}
					}(int64(w))
				}
				wg.Wait()
			})
		}
	}
}
