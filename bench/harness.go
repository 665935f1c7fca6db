package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// config fixes the load shape of a run. The defaults are the
// benchmark; -smoke shrinks the windows and the session length so the
// whole set runs in seconds under the race detector.
type config struct {
	seed      int64
	nproc     int           // client goroutines, connections and engine workers never exceed this
	window    time.Duration // untraced measurement window (end-to-end metrics)
	traced    time.Duration // traced window (per-layer metrics); 0 skips it
	setupReps int           // set-ups before the window and again after it; setup_s is the mean of the fastest sixth
	dir       string        // storage root for durable sessions and span files

	sessionCycles  int // cycles per service session (fixed: cost per firing grows with session length)
	batch          int // tuples per assert
	retainSessions int // service sessions whose streamed trace is kept for CheckTraceFrom: 1 in retainSessions
	retainRounds   int // embedded rounds whose trace is kept for CheckTrace: 1 in retainRounds
	deck           int // distinct generated programs par-contended cycles through
	joinKeys       int // keys of match-join's JoinHeavy program
	steps          int // steps of each of par-independent's 32 counters
	width          int // initial tuples of each par-contended program
}

func defaultConfig() config {
	return config{
		seed: 1, nproc: runtime.NumCPU(),
		window: 15 * time.Second, traced: 5 * time.Second,
		setupReps: 30, dir: "bench/out",
		sessionCycles: 250, batch: 8, retainSessions: 4, retainRounds: 16, deck: 16, joinKeys: 400, steps: 48, width: 48,
	}
}

func (c *config) smoke() {
	c.window, c.traced = 300*time.Millisecond, 300*time.Millisecond
	c.setupReps, c.sessionCycles, c.deck = 2, 10, 4
	c.joinKeys, c.steps, c.width = 40, 4, 8
}

// runner is one workload: the system under test plus its closed-loop
// callers. Every method runs outside the clock except cycle.
type runner interface {
	// setup generates the inputs from the seed and brings the system
	// to the point where the first cycle can run; teardown releases
	// everything setup and the cycles acquired.
	setup() error
	teardown() error
	// clients is the number of closed-loop callers, each driven on its
	// own goroutine; it never exceeds config.nproc.
	clients() int
	// sliceCycles is how many cycles of each client make one slice, and
	// phases how many consecutive slices make one unit of identical
	// work (one pass of the deck: 1; one service session, whose cycles
	// get dearer as it grows: several). Slices of the same phase do the
	// same work and can be compared with each other.
	sliceCycles() int
	phases() int
	// warmUnits is how many units of work the discarded warm-up runs:
	// a fixed amount of work, not of time, so that every run has done
	// the same work when the heap is read.
	warmUnits() int
	// prepare does the untimed work between two cycles of a client
	// (session turnover); cycle runs one timed cycle and returns the
	// firings it committed. cycle fails when the call errors, is shed,
	// or commits another number of firings than the inputs dictate.
	prepare(client int) error
	cycle(client int) (firings int, err error)
	// finish closes what the cycles left open so that verify can see
	// it.
	finish() error
	// verify checks, and then releases, every output collected since
	// the last call: commit traces against Definition 3.2, firing
	// counts, recovery of durable sessions. It returns one error per
	// failed check.
	verify() []error
	// layers computes the per-layer metrics after a traced window.
	layers(w *window, ref *window) (*layerReport, error)
}

// slice is one stretch of a window: every client runs sliceCycles
// cycles, all start together and the slice ends when the last one is
// done.
type slice struct {
	phase          int
	dur            time.Duration
	cpu            time.Duration // process user+sys
	mallocs, bytes uint64
	firings        int
	samples        []time.Duration // every cycle's latency, raw
}

// window is what one measurement window observed. The time-like
// figures (kept*) come from the fastest third of the slices of each
// phase only: on a shared box interference only ever slows a slice — a
// pure CPU loop on the 2-core development container swings 2x over
// episodes of 3 to 8 s — so the slow slices measure the neighbours,
// not the program, and the whole-window figures (all*) swing with
// them.
type window struct {
	slices []slice
	kept   []slice // per phase the fastest third, at least keepMin

	cycles, failed, firings int
	allDur, keptDur         time.Duration
	keptCPU                 time.Duration
	keptFirings             int
	keptSamples             []time.Duration
	mallocs, bytes          uint64
	gcCycles                uint32
	gcPause                 time.Duration
	liveHeap                uint64 // HeapAlloc after verify and a forced GC, sessions and engines still open
	errs                    []error
	spans                   []span
	setupTime               time.Duration // mean of the fastest sixth of the set-ups
}

// keepMin is the least number of slices kept; keepSamples is the least
// number of cycle latencies the kept slices must hold, so that their
// p90 has ten samples beyond it.
const (
	keepMin     = 3
	keepSamples = 10 * minBeyond
)

func (w *window) firingsPerS() float64 {
	return ratio(float64(w.keptFirings), w.keptDur.Seconds())
}
func (w *window) allFiringsPerS() float64 {
	return ratio(float64(w.firings), w.allDur.Seconds())
}
func (w *window) cpuNSPerFiring() float64 {
	return ratio(float64(w.keptCPU.Nanoseconds()), float64(w.keptFirings))
}
func (w *window) cycleMeanNS() float64 {
	var sum time.Duration
	for _, d := range w.keptSamples {
		sum += d
	}
	return ratio(float64(sum), float64(len(w.keptSamples)))
}

// fastestThird returns how many of n equal-work measurements are kept.
func fastestThird(n int) int {
	k := n / 3
	if k < keepMin {
		k = keepMin
	}
	if k > n {
		k = n
	}
	return k
}

// keep selects, for every phase, the fastest third of its slices —
// more when that holds too few cycles for a p90 — and sums them. Every
// phase keeps the same number, so the kept set is whole units of work.
func (w *window) keep(phases int) {
	groups := make([][]slice, phases)
	for _, s := range w.slices {
		groups[s.phase] = append(groups[s.phase], s)
		w.allDur += s.dur
		w.mallocs += s.mallocs
		w.bytes += s.bytes
	}
	n, perSlice := len(groups[0]), 0
	for _, g := range groups {
		sort.SliceStable(g, func(i, j int) bool { return g[i].dur < g[j].dur })
		if len(g) < n {
			n = len(g)
		}
	}
	if n > 0 {
		perSlice = len(groups[0][0].samples)
	}
	k := fastestThird(n)
	for k < n && k*phases*perSlice < keepSamples {
		k++
	}
	for _, g := range groups {
		w.kept = append(w.kept, g[:k]...)
	}
	for _, s := range w.kept {
		w.keptDur += s.dur
		w.keptCPU += s.cpu
		w.keptFirings += s.firings
		w.keptSamples = append(w.keptSamples, s.samples...)
	}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// drive runs the closed loop one slice after another, for units whole
// units of work (phases slices each) and then until d has passed: in a
// slice every client repeats prepare+cycle sliceCycles times on its own
// goroutine, and the slice ends when all are done. A unit that has
// started always completes, so the window overruns d by less than one
// unit and leaves the system in the same state every time. atUnit, when
// not nil, runs outside the clock after each completed unit.
func drive(r runner, units int, d time.Duration, w *window, atUnit func(done int)) {
	var first, ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&first)
	deadline := time.Now().Add(d)
	more := func() bool {
		done, part := len(w.slices)/r.phases(), len(w.slices)%r.phases()
		return part != 0 || done < units || time.Now().Before(deadline)
	}
	for w.failed == 0 && more() { // a failed run is reported, not measured further
		var mu sync.Mutex
		var wg sync.WaitGroup
		sl := slice{phase: len(w.slices) % r.phases()}
		runtime.ReadMemStats(&ms0)
		cpu0 := processCPU()
		start := time.Now()
		for c := 0; c < r.clients(); c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				samples := make([]time.Duration, 0, r.sliceCycles())
				var errs []error
				cycles, failed, firings := 0, 0, 0
				for i := 0; i < r.sliceCycles(); i++ {
					if err := r.prepare(c); err != nil {
						cycles++
						failed++
						errs = append(errs, err)
						break // a client that cannot open a session cannot go on
					}
					t0 := time.Now()
					n, err := r.cycle(c)
					samples = append(samples, time.Since(t0))
					cycles++
					firings += n
					if err != nil {
						failed++
						errs = append(errs, err)
					}
				}
				mu.Lock()
				sl.samples = append(sl.samples, samples...)
				sl.firings += firings
				w.cycles += cycles
				w.failed += failed
				if len(w.errs) < 16 {
					w.errs = append(w.errs, errs...)
				}
				mu.Unlock()
			}(c)
		}
		wg.Wait()
		sl.dur = time.Since(start)
		sl.cpu = processCPU() - cpu0
		runtime.ReadMemStats(&ms1)
		sl.mallocs = ms1.Mallocs - ms0.Mallocs
		sl.bytes = ms1.TotalAlloc - ms0.TotalAlloc
		w.firings += sl.firings
		w.slices = append(w.slices, sl)
		if atUnit != nil && len(w.slices)%r.phases() == 0 {
			atUnit(len(w.slices) / r.phases())
		}
	}
	w.gcCycles = ms1.NumGC - first.NumGC
	w.gcPause = time.Duration(ms1.PauseTotalNs - first.PauseTotalNs)
	w.keep(r.phases())
}

// heapUnits is the unit of the window after which the heap is read: at
// a fixed amount of work since set-up, not at the end of the window,
// because closed service sessions stay reachable from their connection
// (conn.owned) and a faster run would otherwise read a bigger heap.
const heapUnits = 3

// measure is one complete pass over a workload: set-up (repeated, the
// last one kept), warm-up, the window, then verification outside the
// clock. The heap is read with every session or engine still open but
// after the harness has verified and released what it retained, so
// the reading is the system's, not the harness's.
func measure(newRunner func() runner, cfg *config, tr *tracer, reps int, d time.Duration) (runner, *window, error) {
	w := &window{}
	var r runner
	var setups []float64
	setUp := func() (runner, error) {
		t0 := time.Now()
		nr := newRunner()
		if err := nr.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return nr, nil
	}
	for i := 0; i < reps; i++ {
		if r != nil {
			if err := r.teardown(); err != nil {
				return nil, nil, fmt.Errorf("teardown: %w", err)
			}
		}
		var err error
		if r, err = setUp(); err != nil {
			return nil, nil, err
		}
	}
	if r.clients() > cfg.nproc {
		return nil, nil, fmt.Errorf("%d clients exceed nproc %d", r.clients(), cfg.nproc)
	}

	var discard window
	drive(r, r.warmUnits(), 0, &discard, nil)
	discard.errs = append(discard.errs, r.verify()...) // release what the warm-up retained
	if len(discard.errs) > 0 {
		return nil, nil, fmt.Errorf("warm-up: %w", discard.errs[0])
	}

	mark := len(tr.snapshot()) // the window's spans start here
	var verr []error
	readHeap := func() {
		verr = append(verr, r.verify()...)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		w.liveHeap = ms.HeapAlloc
	}
	drive(r, 0, d, w, func(done int) {
		if done == heapUnits {
			readHeap()
		}
	})
	if w.liveHeap == 0 { // a window shorter than heapUnits units
		readHeap()
	}
	if err := r.finish(); err != nil {
		w.failed++
		w.errs = append(w.errs, err)
	}
	verr = append(verr, r.verify()...)
	w.failed += len(verr)
	w.errs = append(w.errs, verr...)

	// Set up again as often after the window, on runners that are torn
	// down at once: two moments a window apart give a disturbed spell
	// less chance to cover every set-up.
	for i := 1; i < reps; i++ {
		extra, err := setUp()
		if err != nil {
			return nil, nil, err
		}
		if err := extra.teardown(); err != nil {
			return nil, nil, fmt.Errorf("teardown: %w", err)
		}
	}
	sort.Float64s(setups)
	k := (len(setups) + 5) / 6 // the fastest sixth
	var sum float64
	for _, s := range setups[:k] {
		sum += s
	}
	w.setupTime = time.Duration(sum / float64(k) * float64(time.Second))
	w.spans = tr.snapshot()[mark:]
	return r, w, nil
}
