package main

import (
	"fmt"
	"math/rand"

	"pdps/internal/engine"
	"pdps/internal/lang"
	"pdps/internal/lock"
	"pdps/internal/obs"
	"pdps/internal/storage"
	"pdps/internal/trace"
	"pdps/internal/wm"
	"pdps/internal/workload"
)

// counts sums metric series by name across labels, sessions and
// engines: a counter under its name, a histogram under name#sum and
// name#count.
type counts map[string]float64

func (c counts) add(s obs.Snapshot) {
	for _, p := range s.Counters {
		c[p.Name] += float64(p.Value)
	}
	for _, p := range s.Histograms {
		c[p.Name+"#sum"] += float64(p.Sum)
		c[p.Name+"#count"] += float64(p.Count)
	}
}

func (c counts) merge(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

// capture is the storage backend the harness passes as
// Options.Storage on traced runs: it keeps every record the engine
// appends (the commit sequence the layer replays re-execute) and, when
// it wraps a real backend, times the calls into it as spans.
type capture struct {
	inner   storage.Backend // nil: capture only
	tr      *tracer
	parent  int
	records []*storage.Record
}

func (c *capture) Append(r *storage.Record) (storage.LSN, error) {
	c.records = append(c.records, r)
	if c.inner == nil {
		return storage.LSN(len(c.records)), nil
	}
	sp := c.tr.begin("storage.append", c.parent, 0)
	lsn, err := c.inner.Append(r)
	c.tr.end(sp)
	return lsn, err
}

func (c *capture) Sync() error {
	if c.inner == nil {
		return nil
	}
	sp := c.tr.begin("storage.sync", c.parent, 0)
	err := c.inner.Sync()
	c.tr.end(sp)
	return err
}

func (c *capture) Checkpoint(*wm.Store) error { return nil }

func (c *capture) Recover() (*storage.Recovery, error) {
	return &storage.Recovery{Store: wm.NewStore()}, nil
}

func (c *capture) Close() error {
	if c.inner == nil {
		return nil
	}
	return c.inner.Close()
}

// embKind selects the embedded workload.
type embKind int

const (
	parIndependent embKind = iota
	parContended
	matchJoin
)

// deckEntry is one generated program and the exact number of commits
// every consistent run of it performs.
type deckEntry struct {
	prog engine.Program
	want int
}

// embRound is what the harness keeps of a retained round.
type embRound struct {
	entry   deckEntry
	commits []trace.Event
	store   *wm.Store         // final working memory
	initial []*wm.WME         // working memory before Run (traced)
	records []*storage.Record // captured commit records (traced)
}

// embRunner drives an engine embedded in the harness: each cycle is
// one round — build an engine over the next program of the deck, run
// it to quiescence.
type embRunner struct {
	cfg  *config
	kind embKind
	tr   *tracer

	deck     []deckEntry
	round    int
	open     []embEngine // the last slice's engines, kept open for the heap reading
	retained []*embRound
	kept     []*embRound   // verified traced rounds for the layer replays
	reg      *obs.Registry // shared by every traced round's engine
}

// keepRounds bounds the traced rounds kept for the layer replays.
const keepRounds = 8

// smallDeck is the deck size of the workloads with one program: the
// seed only orders the initial tuples, so a few orders suffice.
// par-contended cycles through cfg.deck structurally different
// programs, RandomContended(1..deck): one generated program costs
// anywhere from 16 to 280 us a firing depending on how many layers
// draw the hub and the negation, so the family is fixed and every
// seed, which orders the deck and each program's tuples, runs the
// same mix many times over.
const smallDeck = 4

func newEmb(cfg *config, kind embKind, tr *tracer) *embRunner {
	r := &embRunner{cfg: cfg, kind: kind, tr: tr}
	if tr != nil {
		r.reg = obs.NewRegistry()
	}
	return r
}

func (r *embRunner) clients() int      { return 1 }
func (r *embRunner) teardown() error   { return nil }
func (r *embRunner) prepare(int) error { return nil }
func (r *embRunner) finish() error     { return nil }
func (r *embRunner) phases() int       { return 1 }
func (r *embRunner) warmUnits() int    { return 4 }

// sliceCycles is one pass of par-contended's deck, so that every slice
// runs the same programs; the single-program workloads use the same
// length, about half a second of work.
func (r *embRunner) sliceCycles() int {
	if r.kind == matchJoin {
		return r.cfg.deck / 2
	}
	return r.cfg.deck
}

// shuffled returns the program with its initial tuples in a
// seed-chosen order: insertion order fixes IDs and time tags, hence
// the order LEX and the dispatcher see, without changing what fires.
func shuffled(p engine.Program, rng *rand.Rand) engine.Program {
	rng.Shuffle(len(p.WMEs), func(i, j int) { p.WMEs[i], p.WMEs[j] = p.WMEs[j], p.WMEs[i] })
	return p
}

// setup generates the deck from the seed and builds one engine, so
// that set-up time covers program generation and a first build.
func (r *embRunner) setup() error {
	rng := rand.New(rand.NewSource(r.cfg.seed))
	n := smallDeck
	if r.kind == parContended {
		n = r.cfg.deck
	}
	r.deck = make([]deckEntry, n)
	for i := range r.deck {
		switch r.kind {
		case parIndependent:
			r.deck[i] = deckEntry{shuffled(workload.Independent(32, r.cfg.steps), rng), 32 * r.cfg.steps}
		case parContended:
			p, want := workload.RandomContended(int64(i+1), 6, r.cfg.width, 0.5, 0.25)
			r.deck[i] = deckEntry{shuffled(p, rng), want}
		case matchJoin:
			r.deck[i] = deckEntry{shuffled(workload.JoinHeavy(r.cfg.joinKeys, 4), rng), r.cfg.joinKeys}
		}
	}
	rng.Shuffle(len(r.deck), func(i, j int) { r.deck[i], r.deck[j] = r.deck[j], r.deck[i] })
	r.open = make([]embEngine, r.sliceCycles())
	_, err := r.build(r.deck[0].prog, engine.Options{Np: r.cfg.nproc})
	return err
}

type embEngine interface {
	Run() (engine.Result, error)
	Store() *wm.Store
}

func (r *embRunner) build(p engine.Program, opts engine.Options) (embEngine, error) {
	if r.kind == matchJoin {
		return engine.NewSingle(p, opts)
	}
	return engine.NewParallel(p, lock.SchemeRcRaWa, opts)
}

func (r *embRunner) cycle(int) (int, error) {
	e := r.deck[r.round%len(r.deck)]
	retain := r.round%r.cfg.retainRounds == 0
	r.round++
	opts := engine.Options{Np: r.cfg.nproc}
	var capt *capture
	if r.tr != nil {
		capt = &capture{}
		opts.Metrics, opts.Storage = r.reg, capt
	}
	root := r.tr.begin("cycle", 0, r.round)
	defer r.tr.end(root)

	sp := r.tr.begin("engine.build", root, r.round)
	eng, err := r.build(e.prog, opts)
	r.tr.end(sp)
	if err != nil {
		return 0, err
	}
	var initial []*wm.WME
	if capt != nil && retain {
		initial = eng.Store().All()
	}
	sp = r.tr.begin("engine.run", root, r.round)
	res, err := eng.Run()
	r.tr.end(sp)
	r.open[r.round%len(r.open)] = eng
	if err != nil {
		return res.Firings, err
	}
	if res.Firings != e.want || res.LimitHit || res.Halted {
		return res.Firings, fmt.Errorf("round %d fired %d (limit=%v halted=%v), want %d",
			r.round, res.Firings, res.LimitHit, res.Halted, e.want)
	}
	if retain {
		rd := &embRound{entry: e, commits: res.Log.Commits(), store: res.Store, initial: initial}
		if capt != nil {
			rd.records = capt.records
		}
		r.retained = append(r.retained, rd)
	}
	return res.Firings, nil
}

// verify replays each retained round's commit sequence against the
// single-thread semantics (Definition 3.2).
func (r *embRunner) verify() []error {
	var errs []error
	for i, rd := range r.retained {
		var err error
		if r.kind == matchJoin {
			err = checkJoinRound(rd, i == 0)
		} else {
			err = engine.CheckTrace(rd.entry.prog, rd.commits)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("round trace not admissible: %w", err))
		} else if rd.records != nil && len(r.kept) < keepRounds {
			r.kept = append(r.kept, rd)
		}
	}
	r.retained = nil
	return errs
}

// joinPrefix is how many commits of a match-join round the reference
// checker replays. CheckTrace re-derives every instantiation of the
// 5-way join by nested scans before each commit — about 25 ms a commit
// at 400 keys, 10 s a round — so the full sequence is checked by the
// program-specific argument below and only a prefix by CheckTrace.
const joinPrefix = 16

// checkJoinRound verifies a JoinHeavy round. The program's firings are
// independent: the instantiation of key k is active exactly while task
// k is not done and its reference tuples exist, and nothing removes
// those. So a commit sequence is a single-thread execution iff every
// commit matched one not-yet-done task with the reference tuples of
// the same key and no key commits twice; the final store must then
// hold every task done.
func checkJoinRound(rd *embRound, withPrefix bool) error {
	done := make(map[string]bool, len(rd.commits))
	for i, c := range rd.commits {
		if len(c.WMEs) < 2 {
			return fmt.Errorf("commit %d matched %d tuples", i, len(c.WMEs))
		}
		task, err := lang.ParseWME(c.WMEs[0])
		if err != nil {
			return err
		}
		k := task.Attrs["k"]
		if task.Class != "task" || !task.Attrs["done"].Equal(wm.Bool(false)) || done[k.String()] {
			return fmt.Errorf("commit %d fired on %s", i, c.WMEs[0])
		}
		for l, fp := range c.WMEs[1:] {
			ref, err := lang.ParseWME(fp)
			if err != nil {
				return err
			}
			if ref.Class != fmt.Sprintf("ref%d", l) || !ref.Attrs["k"].Equal(k) {
				return fmt.Errorf("commit %d joined %s to key %s", i, fp, k)
			}
		}
		done[k.String()] = true
	}
	tasks := rd.store.ByClass("task")
	if len(tasks) != len(done) {
		return fmt.Errorf("%d tasks, %d commits", len(tasks), len(done))
	}
	for _, w := range tasks {
		if !w.Attr("done").Equal(wm.Bool(true)) {
			return fmt.Errorf("task %s left undone", w)
		}
	}
	if withPrefix && len(rd.commits) > joinPrefix {
		return engine.CheckTrace(rd.entry.prog, rd.commits[:joinPrefix])
	}
	return nil
}
