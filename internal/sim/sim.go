// Package sim implements the deterministic multiprocessor model of
// Section 5: productions of the initial conflict set start executing
// on Np processors (list scheduling in declaration order); a
// production commits the moment it finishes; each commit updates the
// conflict set through the production's add/delete sets, aborting
// running or queued productions it deactivates and scheduling the ones
// it activates. The simulator reproduces Figures 5.1–5.4 exactly and
// generalises them to arbitrary abstract systems, processor counts and
// execution times.
package sim

import (
	"fmt"
	"sort"
	"strings"

	"pdps/internal/core"
)

// Commit records one committed production and its commit time.
type Commit struct {
	Name string
	Time int
}

// Abort records an aborted production: when it was killed, by whose
// commit, and how many time units of work it had completed (wasted
// computation, the f·T term of Example 5.1).
type Abort struct {
	Name string
	At   int
	By   string
	Ran  int

	full int // the production's full execution time
}

// Slot is one scheduled execution interval, for Gantt rendering.
type Slot struct {
	Proc      int
	Name      string
	Start     int
	End       int // commit time, or abort time for aborted runs
	Committed bool
	AbortedBy string
}

// Result summarises a multiprocessor run.
type Result struct {
	// Commits is the derived commit sequence σ with commit times.
	Commits []Commit
	// Aborts are the productions killed by commits.
	Aborts []Abort
	// TSingle is the single-thread execution time of σ: the sum of the
	// committed productions' execution times.
	TSingle int
	// TMulti is the multiple-thread completion time: the last commit's
	// time (0 when nothing commits).
	TMulti int
	// Schedule is the per-processor timeline.
	Schedule []Slot
	// Truncated reports the MaxCommits safety bound was hit.
	Truncated bool
}

// Speedup returns TSingle/TMulti (Section 5's definition), or 0 when
// nothing committed.
func (r Result) Speedup() float64 {
	if r.TMulti == 0 {
		return 0
	}
	return float64(r.TSingle) / float64(r.TMulti)
}

// Sigma returns the commit sequence as names.
func (r Result) Sigma() []string {
	out := make([]string, len(r.Commits))
	for i, c := range r.Commits {
		out[i] = c.Name
	}
	return out
}

// UniprocessorMultiTime evaluates Example 5.1's multi-thread time on a
// uniprocessor: the committed work plus the fraction f of the aborted
// productions' full execution times that was wasted before abort.
// For 0 ≤ f < 1 this is always at least TSingle, which is the paper's
// claim that single-thread execution on a uniprocessor is never slower.
func (r Result) UniprocessorMultiTime(f float64) float64 {
	wasted := 0
	for _, a := range r.Aborts {
		wasted += fullTimeOf(a)
	}
	return float64(r.TSingle) + f*float64(wasted)
}

// fullTimeOf recovers the aborted production's full execution time.
// Ran stores completed units; the slot records when it was killed, but
// the paper's formula charges f of the FULL time, so aborts carry it.
func fullTimeOf(a Abort) int { return a.full }

// Config parameterises a run.
type Config struct {
	// Np is the number of processors; values below 1 are an error.
	Np int
	// MaxCommits bounds non-terminating systems; 0 means 10000.
	MaxCommits int
}

// Run simulates the system on Np processors and derives the commit
// sequence, abort set and timings.
func Run(sys *core.System, cfg Config) (Result, error) {
	if cfg.Np < 1 {
		return Result{}, fmt.Errorf("sim: Np must be >= 1, got %d", cfg.Np)
	}
	maxCommits := cfg.MaxCommits
	if maxCommits == 0 {
		maxCommits = 10000
	}

	// Declaration order index for deterministic tie-breaking.
	declIdx := make(map[string]int)
	for i, p := range sys.Productions() {
		declIdx[p.Name] = i
	}

	type run struct {
		name  string
		proc  int
		start int
		end   int
	}
	var (
		res      Result
		state    = core.State(sys.Initial())
		procFree = make([]int, cfg.Np)
		running  []*run
		queue    []string // active, waiting for a processor (FIFO)
		now      = 0
	)
	// The initial queue follows declaration order (the paper assigns
	// P1..P4 to processors 1..4).
	for _, p := range sys.Productions() {
		if state.Contains(p.Name) {
			queue = append(queue, p.Name)
		}
	}

	timeOf := func(name string) int {
		p, _ := sys.Production(name)
		return p.Time
	}
	// schedule assigns queued productions to processors that are free
	// at time t; the rest wait for the next commit/abort event.
	schedule := func(t int) {
		for len(queue) > 0 {
			proc := -1
			for i, free := range procFree {
				if free <= t {
					proc = i
					break
				}
			}
			if proc == -1 {
				return
			}
			name := queue[0]
			queue = queue[1:]
			r := &run{name: name, proc: proc, start: t, end: t + timeOf(name)}
			procFree[proc] = r.end
			running = append(running, r)
		}
	}
	schedule(0)

	for len(running) > 0 {
		if len(res.Commits) >= maxCommits {
			res.Truncated = true
			break
		}
		// Next event: the earliest finishing run; ties by declaration order.
		sort.Slice(running, func(i, j int) bool {
			if running[i].end != running[j].end {
				return running[i].end < running[j].end
			}
			return declIdx[running[i].name] < declIdx[running[j].name]
		})
		r := running[0]
		running = running[1:]
		now = r.end

		next, err := sys.Step(state, r.name)
		if err != nil {
			// The production was deactivated between scheduling and
			// finish without being killed — impossible: kills happen at
			// commit time. Treat as internal error.
			return res, fmt.Errorf("sim: %v", err)
		}
		res.Commits = append(res.Commits, Commit{Name: r.name, Time: now})
		res.TSingle += timeOf(r.name)
		res.TMulti = now
		res.Schedule = append(res.Schedule, Slot{
			Proc: r.proc, Name: r.name, Start: r.start, End: now, Committed: true,
		})

		// Kill running/queued productions deactivated by this commit.
		deactivated := func(name string) bool {
			return state.Contains(name) && !next.Contains(name)
		}
		var survivors []*run
		for _, other := range running {
			if deactivated(other.name) {
				ran := now - other.start
				if ran < 0 {
					ran = 0
				}
				res.Aborts = append(res.Aborts, Abort{
					Name: other.name, At: now, By: r.name, Ran: ran, full: timeOf(other.name),
				})
				res.Schedule = append(res.Schedule, Slot{
					Proc: other.proc, Name: other.name, Start: other.start,
					End: now, AbortedBy: r.name,
				})
				if procFree[other.proc] == other.end {
					procFree[other.proc] = now
				}
				continue
			}
			survivors = append(survivors, other)
		}
		running = survivors
		var keptQueue []string
		for _, q := range queue {
			if deactivated(q) {
				res.Aborts = append(res.Aborts, Abort{Name: q, At: now, By: r.name, full: timeOf(q)})
				continue
			}
			keptQueue = append(keptQueue, q)
		}
		queue = keptQueue

		// Enqueue productions activated by this commit.
		runningOrQueued := make(map[string]bool)
		for _, other := range running {
			runningOrQueued[other.name] = true
		}
		for _, q := range queue {
			runningOrQueued[q] = true
		}
		for _, name := range next {
			// Anything active but neither running nor queued needs a
			// processor: newly added productions, and the committed
			// production itself when re-added by its own add set.
			if !runningOrQueued[name] {
				queue = append(queue, name)
			}
		}
		state = next
		schedule(now)
	}
	sort.Slice(res.Schedule, func(i, j int) bool {
		if res.Schedule[i].Start != res.Schedule[j].Start {
			return res.Schedule[i].Start < res.Schedule[j].Start
		}
		return res.Schedule[i].Proc < res.Schedule[j].Proc
	})
	return res, nil
}

// Gantt renders the schedule as an ASCII timeline, one row per
// processor, in the style of Figures 5.1–5.4.
func (r Result) Gantt() string {
	byProc := make(map[int][]Slot)
	maxProc := 0
	for _, s := range r.Schedule {
		byProc[s.Proc] = append(byProc[s.Proc], s)
		if s.Proc > maxProc {
			maxProc = s.Proc
		}
	}
	var b strings.Builder
	for p := 0; p <= maxProc; p++ {
		fmt.Fprintf(&b, "proc %d: ", p+1)
		slots := byProc[p]
		sort.Slice(slots, func(i, j int) bool { return slots[i].Start < slots[j].Start })
		cur := 0
		for _, s := range slots {
			for ; cur < s.Start; cur++ {
				b.WriteString(".")
			}
			label := s.Name
			width := s.End - s.Start
			if width < 1 {
				width = 1
			}
			cell := label
			if len(cell) > width {
				cell = cell[:width]
			}
			b.WriteString(cell)
			for i := len(cell); i < width; i++ {
				b.WriteString("=")
			}
			if !s.Committed {
				b.WriteString("x")
				cur = s.End + 1
				continue
			}
			cur = s.End
		}
		b.WriteString("\n")
	}
	return b.String()
}
