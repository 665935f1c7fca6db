package detsched

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"pdps/internal/lock"
	"pdps/internal/sched"
	"pdps/internal/workload"
)

// TestRunIsFunctionOfChoices: a controlled run is a pure function of
// its choice sequence. Forty runs of one contended program under one
// seeded policy record one sequence, and that sequence fed through a
// sched.Stream replays without divergence every time.
func TestRunIsFunctionOfChoices(t *testing.T) {
	for _, scheme := range []lock.Scheme{lock.Scheme2PL, lock.SchemeRcRaWa} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", scheme, seed), func(t *testing.T) {
				t.Parallel()
				prog, want := workload.RandomContended(seed, 6, 12, .5, .25)
				cfg := Config{Scheme: scheme, Np: 4}
				seqs := map[string]int{}
				var recorded []sched.Choice
				for i := 0; i < 40; i++ {
					out := Run(prog, cfg, sched.NewRandom(7))
					if err := Check(prog, out); err != nil {
						t.Fatalf("run %d: %v", i, err)
					}
					if out.Result.Firings != want {
						t.Fatalf("run %d: %d firings, want %d", i, out.Result.Firings, want)
					}
					seqs[fmt.Sprint(out.Choices)]++
					recorded = out.Choices
				}
				if len(seqs) != 1 {
					t.Fatalf("40 runs under one policy recorded %d distinct choice sequences", len(seqs))
				}
				for i := 0; i < 40; i++ {
					s := sched.NewStream()
					s.Feed(recorded)
					s.Close(nil)
					out := Run(prog, cfg, s)
					if err := s.Err(); err != nil {
						t.Fatalf("replay %d: %v", i, err)
					}
					if err := Check(prog, out); err != nil {
						t.Fatalf("replay %d: %v", i, err)
					}
					if !reflect.DeepEqual(out.Choices, recorded) {
						t.Fatalf("replay %d recorded a different choice sequence", i)
					}
				}
			})
		}
	}
}

// TestCancelledRunUnwindsLockWait: a run cancelled while tasks are
// parked in lock waits — here by exhausting its decision budget at
// every point of the schedule — unwinds those tasks and returns
// ErrBudget instead of killing the process.
func TestCancelledRunUnwindsLockWait(t *testing.T) {
	prog, _ := workload.RandomContended(2, 6, 12, .5, .25)
	for seed := int64(1); seed <= 4; seed++ {
		for k := 1; k <= 100; k++ {
			out := Run(prog, Config{Np: 4, MaxDecisions: k}, sched.NewRandom(seed))
			if out.SchedErr == nil {
				if err := Check(prog, out); err != nil {
					t.Fatalf("seed %d, budget %d: %v", seed, k, err)
				}
				continue
			}
			if !errors.Is(out.SchedErr, sched.ErrBudget) {
				t.Fatalf("seed %d, budget %d: %v, want ErrBudget", seed, k, out.SchedErr)
			}
		}
	}
}
