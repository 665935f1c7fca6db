package engine_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"pdps/internal/engine"
	"pdps/internal/lang"
	"pdps/internal/storage"
	"pdps/internal/trace"
	"pdps/internal/wm"
)

// haltProgram halts on its first firing (the flag is the most recent
// tuple, so LEX picks stop) while a counter rule stays runnable.
const haltProgram = `
(p stop (flag ^on 1) --> (remove 1) (halt))
(p dec (count ^n <n> ^n > 0) --> (modify 1 ^n (- <n> 1)))
(wme count ^n 5)
(wme flag ^on 1)`

func parse(t *testing.T, src string) engine.Program {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func countN(t *testing.T, s *wm.Store) int64 {
	t.Helper()
	c := s.ByClass("count")
	if len(c) != 1 {
		t.Fatalf("count tuples = %d, want 1", len(c))
	}
	return c[0].Attr("n").AsInt()
}

func snapshot(t *testing.T, s *wm.Store) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := s.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

type commit struct {
	Rule, Inst string
	WMEs       []string
}

func commits(l *trace.Log) []commit {
	var out []commit
	for _, e := range l.Commits() {
		out = append(out, commit{e.Rule, e.Inst, e.WMEs})
	}
	return out
}

// TestSingleEqualsDrainedSession pins the shared serial step: Single.Run
// and a Session run to quiescence (or halt) commit the same
// instantiations over the same tuples and leave the same store.
func TestSingleEqualsDrainedSession(t *testing.T) {
	names := []string{"fibonacci", "routing", "towers", "escalation", "halt"}
	for _, name := range names {
		src := haltProgram
		if name != "halt" {
			b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name+".ops"))
			if err != nil {
				t.Fatal(err)
			}
			src = string(b)
		}
		for _, verify := range []bool{false, true} {
			opts := engine.Options{Verify: verify}
			single, err := engine.NewSingle(parse(t, src), opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := single.Run()
			if err != nil || res.LimitHit {
				t.Fatalf("%s verify=%v: Single.Run = %+v, %v", name, verify, res, err)
			}
			sess, err := engine.NewSession(parse(t, src), opts)
			if err != nil {
				t.Fatal(err)
			}
			n, err := sess.Run(1 << 20)
			if err != nil {
				t.Fatal(err)
			}
			if n != res.Firings || sess.Halted() != res.Halted {
				t.Fatalf("%s verify=%v: session fired %d halted=%v, Single %d halted=%v",
					name, verify, n, sess.Halted(), res.Firings, res.Halted)
			}
			if got, want := commits(sess.Log()), commits(res.Log); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s verify=%v: commit sequences differ:\nsession %v\nsingle  %v", name, verify, got, want)
			}
			if !bytes.Equal(snapshot(t, sess.Store()), snapshot(t, res.Store)) {
				t.Fatalf("%s verify=%v: final stores differ", name, verify)
			}
		}
	}
}

// TestSingleHaltAtLimit: a halt on the firing that also reaches
// MaxFirings reports the halt, not the limit.
func TestSingleHaltAtLimit(t *testing.T) {
	e, err := engine.NewSingle(parse(t, haltProgram), engine.Options{MaxFirings: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || res.LimitHit || res.Cycles != 1 || res.Firings != 1 {
		t.Fatalf("Run = halted %v limit %v cycles %d firings %d, want true false 1 1",
			res.Halted, res.LimitHit, res.Cycles, res.Firings)
	}
}

// TestSessionRunStopsAtHalt: Session.Run stops at a halt exactly like
// Single, and the next Run fires again.
func TestSessionRunStopsAtHalt(t *testing.T) {
	s, err := engine.NewSession(parse(t, haltProgram), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Run(100)
	if err != nil || n != 1 || !s.Halted() {
		t.Fatalf("Run = %d, %v, halted %v; want 1 firing then halt", n, err, s.Halted())
	}
	if got := countN(t, s.Store()); got != 5 {
		t.Fatalf("count = %d after the halt, want 5 (nothing fired past it)", got)
	}
	n, err = s.Run(100)
	if err != nil || n != 5 || s.Halted() {
		t.Fatalf("second Run = %d, %v, halted %v; want 5 firings to quiescence", n, err, s.Halted())
	}
}

// failingSync is a backend whose every Sync reports an I/O error.
type failingSync struct{ *storage.Mem }

func (failingSync) Sync() error { return syscall.EIO }

// TestSessionFailStopsOnSyncError: once a commit's Sync fails, Step
// fires nothing more, so memory never runs further ahead of the disk.
func TestSessionFailStopsOnSyncError(t *testing.T) {
	prog := parse(t, `(p dec (count ^n <n> ^n > 0) --> (modify 1 ^n (- <n> 1)))
(wme count ^n 5)`)
	s, err := engine.NewSession(prog, engine.Options{Storage: failingSync{storage.NewMem()}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("first Step err = %v, want EIO", err)
	}
	for i := 0; i < 3; i++ {
		name, err := s.Step()
		if !errors.Is(err, syscall.EIO) || name != "" {
			t.Fatalf("Step after the failure = %q, %v; want nothing fired and EIO", name, err)
		}
	}
	if got := countN(t, s.Store()); got != 4 {
		t.Fatalf("count = %d, want 4 (only the first firing committed)", got)
	}
	if got := len(s.Log().Commits()); got != 1 {
		t.Fatalf("commits = %d, want 1", got)
	}
}
