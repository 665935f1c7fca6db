package detsched

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"pdps/internal/engine"
	"pdps/internal/lang"
	"pdps/internal/lock"
	"pdps/internal/sched"
	"pdps/internal/trace"
	"pdps/internal/workload"
)

// FuzzConfig controls a metamorphic fuzzing campaign: generated
// programs are run through engine-configuration combinations under
// seeded deterministic schedules, and every commit trace is checked
// against the single-thread execution semantics plus the generator's
// metamorphic invariant (the exact commit count every consistent
// execution of the program must realise).
type FuzzConfig struct {
	// Programs is the number of generated programs; 0 means 20.
	Programs int
	// SeedsPerProgram is the number of schedule seeds tried per
	// (program, configuration) pair; 0 means 3.
	SeedsPerProgram int
	// Seed drives program generation and schedule-seed derivation, so a
	// whole campaign is reproducible from one number.
	Seed int64
	// Np is the worker count; 0 means 2.
	Np int
	// Schemes, Deadlocks and Aborts are the configuration axes, walked
	// so that any run of consecutive programs as long as the product of
	// their lengths covers every combination. Schemes nil means
	// {2PL, RcRaWa}.
	Schemes []lock.Scheme
	// Aborts nil means {AbortAlways, AbortReevaluate}.
	Aborts []engine.AbortPolicy
	// Deadlocks nil means {detect, wound-wait}.
	Deadlocks []lock.DeadlockPolicy
	// MaxDecisions bounds each run's scheduling decisions; 0 uses the
	// Config default.
	MaxDecisions int
	// ReproDir, when non-empty, receives shrunk reproducers of any
	// violation as rule-language files.
	ReproDir string
	// Corrupt injects an artificial fault: the first commit's recorded
	// fingerprints are overwritten before checking, guaranteeing an
	// oracle violation. Used to validate the shrinking pipeline.
	Corrupt bool
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...interface{})
}

func (c FuzzConfig) programs() int {
	if c.Programs == 0 {
		return 20
	}
	return c.Programs
}

func (c FuzzConfig) seedsPer() int {
	if c.SeedsPerProgram == 0 {
		return 3
	}
	return c.SeedsPerProgram
}

func (c FuzzConfig) schemes() []lock.Scheme {
	if c.Schemes == nil {
		return []lock.Scheme{lock.Scheme2PL, lock.SchemeRcRaWa}
	}
	return c.Schemes
}

func (c FuzzConfig) aborts() []engine.AbortPolicy {
	if c.Aborts == nil {
		return []engine.AbortPolicy{engine.AbortAlways, engine.AbortReevaluate}
	}
	return c.Aborts
}

func (c FuzzConfig) deadlocks() []lock.DeadlockPolicy {
	if c.Deadlocks == nil {
		return []lock.DeadlockPolicy{lock.DeadlockDetect, lock.DeadlockWoundWait}
	}
	return c.Deadlocks
}

// programConfig is the engine configuration program pi runs under:
// pi's mixed-radix digits index scheme, deadlock policy and abort
// policy, scheme fastest. The campaign walks the cross product of the
// axes across programs rather than exhausting it per program, so each
// program stays cheap.
func (c FuzzConfig) programConfig(pi int) Config {
	schemes, deadlocks, aborts := c.schemes(), c.deadlocks(), c.aborts()
	scheme := schemes[pi%len(schemes)]
	pi /= len(schemes)
	deadlock := deadlocks[pi%len(deadlocks)]
	pi /= len(deadlocks)
	return Config{
		Scheme:       scheme,
		Np:           c.Np,
		Deadlock:     deadlock,
		Abort:        aborts[pi%len(aborts)],
		MaxDecisions: c.MaxDecisions,
	}
}

func (c FuzzConfig) logf(format string, args ...interface{}) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

// Violation is one failing (program, configuration, seed) triple, with
// the shrunk program and, when a repro directory was configured, the
// path of the written reproducer.
type Violation struct {
	// Program is the failing program after shrinking.
	Program engine.Program
	// Config is the engine configuration under which it fails.
	Config Config
	// Seed is the schedule seed reproducing the failure.
	Seed int64
	// Err is the check failure.
	Err error
	// ReproPath is the written reproducer file, if any.
	ReproPath string
}

// Error renders the violation with its reproduction recipe.
func (v *Violation) Error() string {
	return fmt.Sprintf("detsched: violation under %s seed=%d (%d rules, %d wmes): %v",
		v.Config, v.Seed, len(v.Program.Rules), len(v.Program.WMEs), v.Err)
}

// FuzzStats summarises a campaign.
type FuzzStats struct {
	// Programs is the number of programs generated.
	Programs int
	// Runs is the number of deterministic runs executed and checked.
	Runs int
}

// evaluate runs one seeded schedule and applies the oracle and, when
// wantFirings >= 0, the metamorphic commit-count invariant. corrupt
// injects a bogus fingerprint into the first commit before checking.
func evaluate(p engine.Program, cfg Config, seed int64, wantFirings int, corrupt bool) error {
	out := Run(p, cfg, sched.NewRandom(seed))
	if corrupt && out.SchedErr == nil && out.Err == nil {
		commits := out.Commits()
		if len(commits) == 0 {
			return nil // nothing to corrupt: vacuously passes
		}
		mut := make([]trace.Event, len(commits))
		copy(mut, commits)
		mut[0].WMEs = []string{"(corrupt ^injected yes)"}
		if err := engine.CheckTrace(p, mut); err != nil {
			return fmt.Errorf("injected: %w", err)
		}
		return fmt.Errorf("injected corruption not detected by CheckTrace")
	}
	if err := Check(p, out); err != nil {
		return err
	}
	if wantFirings >= 0 && out.Result.Firings != wantFirings {
		return fmt.Errorf("metamorphic invariant: firings = %d, want %d (every consistent execution commits the same count)",
			out.Result.Firings, wantFirings)
	}
	return nil
}

// Fuzz runs the campaign. It stops at the first violation, shrinks it
// to a minimal reproducer, optionally writes the reproducer to
// cfg.ReproDir, and returns it alongside the stats; a clean campaign
// returns a nil violation.
func Fuzz(cfg FuzzConfig) (*Violation, FuzzStats) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var st FuzzStats
	for pi := 0; pi < cfg.programs(); pi++ {
		genSeed := rng.Int63()
		layers := 1 + rng.Intn(3)
		width := 1 + rng.Intn(3)
		prog, want := workload.RandomContended(genSeed, layers, width, 0.5, 0.3)
		st.Programs++
		c := cfg.programConfig(pi)
		for si := 0; si < cfg.seedsPer(); si++ {
			seed := rng.Int63()
			st.Runs++
			err := evaluate(prog, c, seed, want, cfg.Corrupt)
			if err == nil {
				continue
			}
			cfg.logf("violation at program %d seed %d: %v; shrinking", pi, seed, err)
			v := &Violation{Program: prog, Config: c, Seed: seed, Err: err}
			v.Program = Shrink(v.Program, func(q engine.Program) bool {
				return evaluate(q, c, seed, -1, cfg.Corrupt) != nil
			})
			v.Err = evaluate(v.Program, c, seed, -1, cfg.Corrupt)
			if cfg.ReproDir != "" {
				path, werr := WriteRepro(cfg.ReproDir, v)
				if werr != nil {
					cfg.logf("writing reproducer: %v", werr)
				} else {
					v.ReproPath = path
				}
			}
			return v, st
		}
		if (pi+1)%50 == 0 {
			cfg.logf("%d/%d programs, %d runs, all consistent", pi+1, cfg.programs(), st.Runs)
		}
	}
	return nil, st
}

// Shrink minimises a failing program: it repeatedly deletes one rule
// or one initial tuple at a time, keeping any deletion under which the
// program still fails, until no single deletion preserves the failure.
// fails must be deterministic (detsched runs are, by construction).
func Shrink(p engine.Program, fails func(engine.Program) bool) engine.Program {
	cur := p
	for {
		shrunk := false
		for i := 0; i < len(cur.Rules); i++ {
			trial := engine.Program{WMEs: cur.WMEs}
			trial.Rules = append(trial.Rules, cur.Rules[:i]...)
			trial.Rules = append(trial.Rules, cur.Rules[i+1:]...)
			if fails(trial) {
				cur = trial
				shrunk = true
				i--
			}
		}
		for i := 0; i < len(cur.WMEs); i++ {
			trial := engine.Program{Rules: cur.Rules}
			trial.WMEs = append(trial.WMEs, cur.WMEs[:i]...)
			trial.WMEs = append(trial.WMEs, cur.WMEs[i+1:]...)
			if fails(trial) {
				cur = trial
				shrunk = true
				i--
			}
		}
		if !shrunk {
			return cur
		}
	}
}

// WriteRepro renders the violation's program in the rule language with
// a header describing the failing configuration, and writes it under
// dir as a deterministic file name.
func WriteRepro(dir string, v *Violation) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	body := fmt.Sprintf("; detsched reproducer\n; config: %s\n; schedule seed: %d\n; failure: %v\n\n%s",
		v.Config, v.Seed, v.Err, lang.Format(v.Program))
	name := fmt.Sprintf("repro_%s_%d.ops", sanitize(v.Config.Scheme.String()), v.Seed)
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

func sanitize(s string) string {
	out := []rune(s)
	for i, r := range out {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}
