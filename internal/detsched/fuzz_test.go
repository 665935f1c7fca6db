package detsched

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pdps/internal/engine"
	"pdps/internal/lang"
	"pdps/internal/lock"
	"pdps/internal/workload"
)

// TestFuzzCampaignClean runs a small metamorphic campaign and requires
// zero violations: every generated program, under every cycled
// configuration and schedule seed, must produce a commit trace the
// single-thread execution graph admits and hit the generator's exact
// commit-count invariant.
func TestFuzzCampaignClean(t *testing.T) {
	v, st := Fuzz(FuzzConfig{Programs: 15, SeedsPerProgram: 2, Seed: 1, Log: t.Logf})
	if v != nil {
		t.Fatalf("campaign found a violation: %v", v)
	}
	if st.Runs != 30 {
		t.Fatalf("runs = %d, want 30", st.Runs)
	}
}

// TestFuzzCoversEveryConfiguration pins the campaign's walk over the
// configuration axes: under the default FuzzConfig the first 8
// programs run under all 2×2×2 combinations of scheme, deadlock policy
// and abort policy — the shipping default (Rc/Ra/Wa, detect, always)
// among them — and program 8 starts the walk again.
func TestFuzzCoversEveryConfiguration(t *testing.T) {
	var cfg FuzzConfig
	seen := map[string]int{}
	for pi := 0; pi < 8; pi++ {
		c := cfg.programConfig(pi)
		if prev, dup := seen[c.String()]; dup {
			t.Fatalf("programs %d and %d both run under %s", prev, pi, c)
		}
		seen[c.String()] = pi
	}
	def := Config{Scheme: lock.SchemeRcRaWa, Deadlock: lock.DeadlockDetect, Abort: engine.AbortAlways}
	if _, ok := seen[def.String()]; !ok {
		t.Fatalf("shipping default %s never fuzzed; configurations: %v", def, seen)
	}
	if got, want := cfg.programConfig(8).String(), cfg.programConfig(0).String(); got != want {
		t.Fatalf("program 8 runs under %s, want program 0's %s", got, want)
	}
}

// TestFuzzCorruptInjection validates the whole failure pipeline: with
// fault injection on, the campaign must detect the bogus fingerprint,
// shrink the program to a minimal reproducer (a single rule and a
// single tuple suffice to commit once), and write a parseable
// rule-language repro file.
func TestFuzzCorruptInjection(t *testing.T) {
	dir := t.TempDir()
	v, _ := Fuzz(FuzzConfig{Programs: 5, SeedsPerProgram: 1, Seed: 7, Corrupt: true, ReproDir: dir, Log: t.Logf})
	if v == nil {
		t.Fatal("fault injection produced no violation")
	}
	if !strings.Contains(v.Err.Error(), "injected") {
		t.Fatalf("violation is not the injected fault: %v", v.Err)
	}
	if len(v.Program.Rules) > 3 {
		t.Fatalf("shrinker left %d rules, want <= 3", len(v.Program.Rules))
	}
	if len(v.Program.WMEs) > 3 {
		t.Fatalf("shrinker left %d tuples, want <= 3", len(v.Program.WMEs))
	}
	if v.ReproPath == "" {
		t.Fatal("no reproducer written")
	}
	data, err := os.ReadFile(v.ReproPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "; detsched reproducer") {
		t.Fatalf("reproducer missing header:\n%s", data)
	}
	reparsed, err := lang.Parse(string(data))
	if err != nil {
		t.Fatalf("reproducer does not parse: %v", err)
	}
	if len(reparsed.Rules) != len(v.Program.Rules) || len(reparsed.WMEs) != len(v.Program.WMEs) {
		t.Fatalf("reproducer round-trip mismatch: %d/%d rules, %d/%d wmes",
			len(reparsed.Rules), len(v.Program.Rules), len(reparsed.WMEs), len(v.Program.WMEs))
	}
	if filepath.Dir(v.ReproPath) != dir {
		t.Fatalf("reproducer written outside ReproDir: %s", v.ReproPath)
	}
}

// TestShrinkMinimises drives Shrink directly with a synthetic failure
// predicate — "program still contains rule r0" — and requires the
// minimum: exactly that rule and nothing else.
func TestShrinkMinimises(t *testing.T) {
	prog := fig44Program()
	min := Shrink(prog, func(q engine.Program) bool {
		for _, r := range q.Rules {
			if r.Name == "pi" {
				return true
			}
		}
		return false
	})
	if len(min.Rules) != 1 || min.Rules[0].Name != "pi" {
		t.Fatalf("shrink kept %d rules", len(min.Rules))
	}
	if len(min.WMEs) != 0 {
		t.Fatalf("shrink kept %d tuples, want 0", len(min.WMEs))
	}
}

// FuzzEngineTrace is the native fuzz target: go test -fuzz=FuzzEngineTrace
// mutates the generator and schedule seeds and checks every resulting
// trace against the execution-graph oracle.
func FuzzEngineTrace(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(2), uint8(2), false)
	f.Add(int64(42), int64(99), uint8(3), uint8(1), true)
	f.Fuzz(func(t *testing.T, genSeed, schedSeed int64, layers, width uint8, rcrawa bool) {
		prog, want := workload.RandomContended(genSeed, int(layers%4)+1, int(width%3)+1, 0.5, 0.3)
		scheme := lock.Scheme2PL
		if rcrawa {
			scheme = lock.SchemeRcRaWa
		}
		cfg := Config{Scheme: scheme, Np: 2}
		if err := evaluate(prog, cfg, schedSeed, want, false); err != nil {
			t.Fatalf("gen=%d sched=%d %s: %v", genSeed, schedSeed, cfg, err)
		}
	})
}
