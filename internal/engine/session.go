package engine

import (
	"fmt"
	"io"
	"slices"

	"pdps/internal/match"
	"pdps/internal/obs"
	"pdps/internal/trace"
	"pdps/internal/wm"
)

// Session is an interactive single-thread interpreter: working memory
// can be mutated between firings (assert/retract), the conflict set
// inspected, and the recognize-act cycle stepped — the substrate for
// the psshell tool.
type Session struct {
	rt    *runtime
	rules []*match.Rule
}

// NewSession builds a session over the program.
func NewSession(p Program, opts Options) (*Session, error) {
	rt, err := newRuntime(p, opts)
	if err != nil {
		return nil, err
	}
	return &Session{rt: rt, rules: append([]*match.Rule(nil), p.Rules...)}, nil
}

// Store exposes the session's working memory. Mutate it only through
// the session so the matcher stays in sync.
func (s *Session) Store() *wm.Store { return s.rt.store }

// Metrics returns the session's metrics registry.
func (s *Session) Metrics() *obs.Registry { return s.rt.opts.Metrics }

// ConflictSet returns the current unfired instantiations in key order.
func (s *Session) ConflictSet() []*match.Instantiation {
	fired := func(in *match.Instantiation) bool { return s.rt.fired[in.Key()] != nil }
	return slices.DeleteFunc(s.rt.matcher.ConflictSet().All(), fired)
}

// AssertWME adds a tuple to working memory and updates the match state.
func (s *Session) AssertWME(class string, attrs map[string]wm.Value) *wm.WME {
	w := s.rt.store.Insert(class, attrs)
	s.rt.matcher.Insert(w)
	return w
}

// Retract removes the tuple with the given ID.
func (s *Session) Retract(id int64) error {
	w, ok := s.rt.store.Remove(id)
	if !ok {
		return fmt.Errorf("engine: no WME with id %d", id)
	}
	s.rt.matcher.Remove(w)
	return nil
}

// Step fires one production (selected by the session's strategy) and
// returns its rule name, or "" if the system is quiescent. On a durable
// session the commit's record is only staged; it is durable once Sync
// returns, and a caller must not report the commit before then. Once a
// storage failure has been recorded the session is fail-stopped: Step
// fires nothing and returns that error, so memory never runs further
// ahead of the disk.
func (s *Session) Step() (string, error) {
	s.rt.halted = false
	if s.rt.err != nil {
		return "", s.rt.err
	}
	in := s.rt.next()
	if in == nil {
		return "", nil
	}
	return in.Rule.Name, s.rt.fire(in)
}

// Halted reports whether the last Step executed a halt action.
func (s *Session) Halted() bool { return s.rt.halted }

// Sync makes every record staged since the last Sync durable with one
// fsync — the session's ack boundary — and returns the session's first
// storage error. After that error it touches the backend no more: a
// second fsync of a file whose fsync failed proves nothing. No-op
// without a backend.
func (s *Session) Sync() error {
	if s.rt.err == nil {
		s.rt.syncStorage()
	}
	return s.rt.err
}

// Run fires up to max productions, stopping early at quiescence or a
// halt, syncs, and returns how many fired.
func (s *Session) Run(max int) (n int, err error) {
	n, err = s.steps(max)
	if serr := s.Sync(); err == nil {
		err = serr
	}
	return n, err
}

func (s *Session) steps(max int) (n int, err error) {
	for ; n < max; n++ {
		name, err := s.Step()
		if err != nil || name == "" {
			return n, err
		}
		if s.Halted() {
			return n + 1, nil
		}
	}
	return n, nil
}

// Log returns the session's trace log.
func (s *Session) Log() *trace.Log { return s.rt.opts.Log }

// LoadSnapshot replaces the session's working memory with a snapshot
// and rebuilds the match state; refraction history and the agenda are
// reset.
func (s *Session) LoadSnapshot(r io.Reader) error {
	o := s.rt.opts
	var err error
	if o.Restore, err = wm.ReadSnapshot(r); err != nil {
		return err
	}
	store, m, err := load(Program{Rules: s.rules}, o)
	if err != nil {
		return err
	}
	s.rt.store = store
	s.rt.matcher = m
	s.rt.fired = make(map[string]*match.Instantiation)
	s.rt.liveAtSweep = 0
	s.rt.agenda = nil
	return nil
}
