package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pdps/internal/engine"
	"pdps/internal/lang"
	"pdps/internal/obs"
	"pdps/internal/sched"
	"pdps/internal/server"
	"pdps/internal/storage"
	"pdps/internal/wm"
)

// tenantProgram is psload's absorb/clear program: every event is
// absorbed into a done marker that a second rule clears, so each event
// yields exactly two commits and working memory drains to empty.
func tenantProgram(tenant string) string {
	return fmt.Sprintf(`
(p absorb (event ^tenant %s ^seq <s>) --> (remove 1) (make done ^tenant %s ^seq <s>))
(p clear  (done  ^tenant %s ^seq <s>) --> (remove 1))`, tenant, tenant, tenant)
}

// svcCycle is one retained cycle: what was asserted and what the run
// streamed back.
type svcCycle struct {
	tuples []string
	events []server.TraceEvent
}

// svcSession is what the harness keeps of one service session until it
// has been verified.
type svcSession struct {
	tenant, index int
	id, dir       string // dir is relative to the storage root, "" when ephemeral
	program       string
	cycles, fired int
	acked         int // assert batches acknowledged

	retain  bool       // keep every cycle's tuples and streamed events for CheckTraceFrom
	pending []svcCycle // retained cycles not yet verified
	replay  []svcCycle // every cycle, kept past verification for the shadow run (traced, one session)
	keep    bool
	counts  counts // the session engine's metrics at close (traced)
}

type svcTenant struct {
	name   string
	c      *server.Client
	rng    *rand.Rand
	sess   *svcSession
	opened int
}

// svcRunner drives the durable or ephemeral service workload: an
// in-process server on a real loopback socket, one connection and one
// closed-loop goroutine per tenant.
type svcRunner struct {
	cfg     *config
	durable bool
	tr      *tracer

	srv     *server.Server
	root    string
	tenants []*svcTenant

	mu                   sync.Mutex
	closed               []*svcSession // closed, awaiting verify
	kept                 *svcSession   // a verified, retained full session for the layer replays (traced)
	total                counts        // summed session-engine metrics (traced)
	walBytes, walFirings int64
	recoverNS            []time.Duration
}

func newSvc(cfg *config, durable bool, tr *tracer) *svcRunner {
	return &svcRunner{cfg: cfg, durable: durable, tr: tr, total: counts{}}
}

func (r *svcRunner) clients() int { return len(r.tenants) }

// A session's cycles get dearer as its trace log grows, so a slice is a
// fifth of a session and its phase is which fifth.
func (r *svcRunner) sliceCycles() int { return r.cfg.sessionCycles / svcPhases }
func (r *svcRunner) phases() int      { return svcPhases }
func (r *svcRunner) warmUnits() int   { return 1 }

const svcPhases = 5

func (r *svcRunner) setup() error {
	root, err := os.MkdirTemp(r.cfg.dir, "svc-")
	if err != nil {
		return err
	}
	r.root = root
	scfg := server.Config{MaxSessions: r.cfg.nproc + 8, Clock: sched.Immediate{}}
	if r.durable {
		scfg.StorageRoot = root
	}
	r.srv = server.New(scfg)
	if err := r.srv.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	for i := 0; i < r.cfg.nproc; i++ {
		c, err := server.Dial(r.srv.Addr().String())
		if err != nil {
			return err
		}
		t := &svcTenant{name: fmt.Sprintf("t%04d", i), c: c,
			rng: rand.New(rand.NewSource(r.cfg.seed*1000003 + int64(i)))}
		r.tenants = append(r.tenants, t)
		if err := r.open(i); err != nil {
			return err
		}
	}
	return nil
}

func (r *svcRunner) teardown() error {
	for _, t := range r.tenants {
		t.c.Close()
	}
	var err error
	if r.srv != nil {
		err = r.srv.Close()
	}
	if rerr := os.RemoveAll(r.root); err == nil {
		err = rerr
	}
	return err
}

// open creates the tenant's next session.
func (r *svcRunner) open(client int) error {
	t := r.tenants[client]
	keep := r.tr != nil && client == 0 && t.opened == 0
	s := &svcSession{tenant: client, index: t.opened, program: tenantProgram(t.name),
		retain: keep || t.opened%r.cfg.retainSessions == 0, keep: keep}
	var opts server.SessionOptions
	if r.durable {
		s.dir = fmt.Sprintf("%s-%05d", t.name, t.opened)
		opts.StorageDir = s.dir
	}
	sp := r.tr.begin("client.create", 0, 0)
	id, _, _, err := t.c.Create(s.program, opts)
	r.tr.end(sp)
	if err != nil {
		return fmt.Errorf("tenant %s create: %w", t.name, err)
	}
	s.id = id
	t.sess = s
	t.opened++
	return nil
}

// closeSession drains the trace tail, reads the session's metrics on a
// traced run, closes the session and queues it for verification.
func (r *svcRunner) closeSession(client int) error {
	t := r.tenants[client]
	s := t.sess
	t.sess = nil
	tail, err := t.c.Trace(s.id)
	if err != nil {
		return fmt.Errorf("tenant %s trace: %w", t.name, err)
	}
	if s.retain && len(s.pending) > 0 {
		last := &s.pending[len(s.pending)-1]
		last.events = append(last.events, tail...)
	}
	if r.tr != nil {
		raw, err := t.c.Metrics(s.id)
		if err != nil {
			return fmt.Errorf("tenant %s metrics: %w", t.name, err)
		}
		var snap obs.Snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			return fmt.Errorf("tenant %s metrics: %w", t.name, err)
		}
		s.counts = counts{}
		s.counts.add(snap)
	}
	if err := t.c.CloseSession(s.id); err != nil {
		return fmt.Errorf("tenant %s close: %w", t.name, err)
	}
	r.mu.Lock()
	r.closed = append(r.closed, s)
	r.mu.Unlock()
	return nil
}

func (r *svcRunner) prepare(client int) error {
	t := r.tenants[client]
	if t.sess != nil && t.sess.cycles < r.cfg.sessionCycles {
		return nil
	}
	if t.sess != nil {
		if err := r.closeSession(client); err != nil {
			return err
		}
	}
	return r.open(client)
}

// cycle is one assert of cfg.batch tuples plus a run to quiescence:
// 2*batch firings. The seed picks each event's payload.
func (r *svcRunner) cycle(client int) (int, error) {
	t := r.tenants[client]
	s := t.sess
	tuples := make([]string, r.cfg.batch)
	for k := range tuples {
		tuples[k] = fmt.Sprintf("(event ^tenant %s ^seq %d ^val %d)",
			t.name, s.cycles*r.cfg.batch+k, t.rng.Intn(1000000))
	}
	cyc := s.index*r.cfg.sessionCycles + s.cycles + 1
	root := r.tr.begin("cycle", 0, cyc)
	defer r.tr.end(root)

	sp := r.tr.begin("client.assert", root, cyc)
	_, err := t.c.Assert(s.id, tuples...)
	r.tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("tenant %s assert: %w", t.name, err)
	}
	s.acked++
	sp = r.tr.begin("client.run", root, cyc)
	res, err := t.c.Run(s.id, 0)
	r.tr.end(sp)
	s.cycles++
	s.fired += res.Fired
	if s.retain {
		s.pending = append(s.pending, svcCycle{tuples, res.Events})
	}
	if err != nil {
		return res.Fired, fmt.Errorf("tenant %s run: %w", t.name, err)
	}
	if !res.Quiescent || res.Fired != 2*len(tuples) {
		return res.Fired, fmt.Errorf("tenant %s: run fired %d (quiescent=%v), want %d",
			t.name, res.Fired, res.Quiescent, 2*len(tuples))
	}
	return res.Fired, nil
}

func (r *svcRunner) finish() error {
	for c, t := range r.tenants {
		if t.sess != nil {
			if err := r.closeSession(c); err != nil {
				return err
			}
		}
	}
	return nil
}

// verify checks, cycle by cycle, the retained cycles of every session
// (open ones too, so that the harness holds nothing when the heap is
// read), and for every closed session the firing count against the
// events ingested and, if durable, that reopening the directory
// recovers every acknowledged ingest and commit. Verified directories
// are removed.
func (r *svcRunner) verify() []error {
	r.mu.Lock()
	closed := r.closed
	r.closed = nil
	r.mu.Unlock()
	var errs []error
	fail := func(s *svcSession, err error) {
		errs = append(errs, fmt.Errorf("tenant %d session %d: %w", s.tenant, s.index, err))
	}
	for _, t := range r.tenants {
		if t.sess != nil {
			if err := r.verifyCycles(t.sess); err != nil {
				fail(t.sess, err)
			}
		}
	}
	for _, s := range closed {
		err := r.verifyCycles(s)
		if err == nil {
			err = r.verifyClosed(s)
		}
		if err != nil {
			fail(s, err)
		} else if s.keep && s.cycles == r.cfg.sessionCycles {
			r.kept = s
		}
		if s.counts != nil {
			r.total.merge(s.counts)
		}
	}
	return errs
}

// verifyCycles checks the session's pending cycles against the
// single-thread semantics (Definition 3.2) and releases them. Every
// run goes to quiescence and the program drains working memory, so a
// cycle starts from exactly the tuples it asserted: its streamed
// commits must be a single-thread execution from those, twice as many
// as the tuples.
func (r *svcRunner) verifyCycles(s *svcSession) error {
	pending := s.pending
	s.pending = nil
	if len(pending) == 0 {
		return nil
	}
	if s.keep {
		s.replay = append(s.replay, pending...)
	}
	prog, err := lang.Parse(s.program)
	if err != nil {
		return err
	}
	for i, c := range pending {
		base := wm.NewStore()
		for _, src := range c.tuples {
			iw, err := lang.ParseWME(src)
			if err != nil {
				return err
			}
			base.Insert(iw.Class, iw.Attrs)
		}
		commits := server.Commits(c.events)
		if len(commits) != 2*len(c.tuples) {
			return fmt.Errorf("cycle streamed %d commits for %d tuples", len(commits), len(c.tuples))
		}
		if err := engine.CheckTraceFrom(base, prog.Rules, commits); err != nil {
			return fmt.Errorf("retained cycle %d: streamed trace not admissible: %w", i, err)
		}
	}
	return nil
}

func (r *svcRunner) verifyClosed(s *svcSession) error {
	if events := s.cycles * r.cfg.batch; s.fired != 2*events {
		return fmt.Errorf("fired %d, want %d", s.fired, 2*events)
	}
	if s.dir == "" {
		return nil
	}
	dir := filepath.Join(r.root, s.dir)
	var size int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			size += info.Size()
		}
	}
	t0 := time.Now()
	f, err := storage.OpenFile(dir, storage.FileOptions{})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	rec, err := f.Recover()
	took := time.Since(t0)
	f.Close()
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	// One record per acknowledged assert batch and one per commit; the
	// program drains working memory, so the recovered store is empty.
	if want := storage.LSN(s.acked + s.fired); rec.LSN < want {
		return fmt.Errorf("recovered LSN %d does not cover the %d acknowledged records", rec.LSN, want)
	}
	if n := rec.Store.Len(); n != 0 {
		return fmt.Errorf("recovered store holds %d tuples, want 0", n)
	}
	r.walBytes += size
	r.walFirings += int64(s.fired)
	r.recoverNS = append(r.recoverNS, took)
	return os.RemoveAll(dir)
}
