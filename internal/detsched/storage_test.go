package detsched

import (
	"reflect"
	"testing"

	"pdps/internal/lock"
	"pdps/internal/sched"
	"pdps/internal/storage"
	"pdps/internal/wm"
	"pdps/internal/workload"
)

// recordKeys flattens a backend's recovered records for bit-for-bit
// comparison.
func recordKeys(t *testing.T, b storage.Backend) []string {
	t.Helper()
	rec, err := b.Recover()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(rec.Records))
	for _, r := range rec.Records {
		out = append(out, r.Rule+"|"+r.Inst)
	}
	return out
}

// TestStorageDeterministic replays the same seed twice with a storage
// backend attached and requires bit-for-bit identical durable record
// sequences: backend I/O rides the committer task, so the schedule
// fixes the append order too. It also cross-checks the log against the
// trace — exactly one record per commit, in commit order.
func TestStorageDeterministic(t *testing.T) {
	prog := workload.SharedCounter(3, 2)
	for seed := int64(0); seed < 5; seed++ {
		mkOut := func() (RunOutcome, storage.Backend) {
			// Seed the initial WM as a non-firing record so the backend
			// can replay onto an empty base, and hand the same store to
			// the engine for ID continuity.
			m := storage.NewMem()
			base := wm.NewStore()
			var init wm.Delta
			for _, iw := range prog.WMEs {
				init.Adds = append(init.Adds, base.Insert(iw.Class, iw.Attrs))
			}
			if _, err := m.Append(&storage.Record{Delta: &init}); err != nil {
				t.Fatal(err)
			}
			run := prog
			run.WMEs = nil
			cfg := Config{Scheme: lock.SchemeRcRaWa, Np: 3, Storage: m, Restore: base}
			return Run(run, cfg, sched.NewRandom(seed)), m
		}
		a, ma := mkOut()
		_, mb := mkOut()
		if err := Check(prog, a); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ka, kb := recordKeys(t, ma), recordKeys(t, mb)
		if !reflect.DeepEqual(ka, kb) {
			t.Fatalf("seed %d: durable record sequences differ:\n%v\nvs\n%v", seed, ka, kb)
		}
		commits := a.Commits()
		if len(ka) != len(commits)+1 {
			t.Fatalf("seed %d: %d records for %d commits + 1 seed", seed, len(ka), len(commits))
		}
		for i, ev := range commits {
			if ka[i+1] != ev.Rule+"|"+ev.Inst {
				t.Fatalf("seed %d: record %d = %q, commit = %q|%q", seed, i+1, ka[i+1], ev.Rule, ev.Inst)
			}
		}
	}
}
