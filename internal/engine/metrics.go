package engine

import (
	"sync"
	"sync/atomic"

	"pdps/internal/obs"
)

// ruleSeries holds one rule's labeled metric handles.
type ruleSeries struct {
	commits  *obs.Counter
	aborts   *obs.Counter
	commitNS *obs.Histogram
}

// engineMetrics holds the engine layer's cached obs handles. The run
// counters (commits, aborts, skips, cycles) are atomics, so the Result
// summary and a live Snapshot can both be read race-free while workers
// run. Each tally is kept twice: the registry series (which may be
// shared across engines via Options.Metrics and then aggregates) and a
// private per-engine atomic that feeds Result and the MaxFirings
// limit, which must not see another engine's commits.
type engineMetrics struct {
	reg *obs.Registry

	runCommits atomic.Int64
	runAborts  atomic.Int64
	runSkips   atomic.Int64
	runCycles  atomic.Int64

	commits *obs.Counter
	aborts  *obs.Counter
	skips   *obs.Counter
	cycles  *obs.Counter
	retries *obs.Counter

	// commitNS is the fire→commit latency of successful parallel
	// firings; applyNS times the commit critical section itself (delta
	// apply + WAL + incremental re-match) in every engine.
	commitNS *obs.Histogram
	applyNS  *obs.Histogram
	// journalBatch is the size (adds+removes) of each conflict-set
	// change-journal batch the committer drains.
	journalBatch *obs.Histogram
	// refreshSnapshot and refreshDelta count which reconciliation
	// branch each refresh took: a full-membership rebuild versus the
	// O(|delta|) journal drain. A healthy incremental pipeline takes
	// the snapshot branch once (startup) and deltas thereafter.
	refreshSnapshot *obs.Counter
	refreshDelta    *obs.Counter

	// dispatchQ and submitQ gauge the parallel pipeline's two queues.
	dispatchQ *obs.Gauge
	submitQ   *obs.Gauge

	mu    sync.Mutex
	rules map[string]*ruleSeries
}

func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	return &engineMetrics{
		reg:             reg,
		commits:         reg.Counter("engine_commits_total"),
		aborts:          reg.Counter("engine_aborts_total"),
		skips:           reg.Counter("engine_skips_total"),
		cycles:          reg.Counter("engine_cycles_total"),
		retries:         reg.Counter("engine_retries_total"),
		commitNS:        reg.Histogram("engine_commit_latency_ns", "ns"),
		applyNS:         reg.Histogram("engine_commit_apply_ns", "ns"),
		journalBatch:    reg.Histogram("engine_journal_batch_size", "changes"),
		refreshSnapshot: reg.Counter("engine_refresh_snapshot_total"),
		refreshDelta:    reg.Counter("engine_refresh_delta_total"),
		dispatchQ:       reg.Gauge("engine_dispatch_depth"),
		submitQ:         reg.Gauge("engine_submit_depth"),
		rules:           make(map[string]*ruleSeries),
	}
}

func (em *engineMetrics) commitInc() { em.runCommits.Add(1); em.commits.Inc() }
func (em *engineMetrics) abortInc()  { em.runAborts.Add(1); em.aborts.Inc() }
func (em *engineMetrics) skipInc()   { em.runSkips.Add(1); em.skips.Inc() }
func (em *engineMetrics) cycleInc()  { em.runCycles.Add(1); em.cycles.Inc() }

// storageMetrics holds the durability layer's handles. They are
// registered only when Options.Storage is set — engines without a
// backend must not grow wal_* series (golden metrics snapshots pin
// the no-storage registry shape).
type storageMetrics struct {
	// appends counts records staged on the backend; fsyncs counts Sync
	// calls (the durability points).
	appends *obs.Counter
	fsyncs  *obs.Counter
	// fsyncNS times each Sync; groupSize is the number of appended
	// records each Sync made durable (a Static batch; one elsewhere).
	fsyncNS   *obs.Histogram
	groupSize *obs.Histogram
	// checkpoints counts checkpoints the engine triggered;
	// checkpointNS times snapshot write + log prune.
	checkpoints  *obs.Counter
	checkpointNS *obs.Histogram
}

func newStorageMetrics(reg *obs.Registry) *storageMetrics {
	return &storageMetrics{
		appends:      reg.Counter("wal_append_total"),
		fsyncs:       reg.Counter("wal_fsync_total"),
		fsyncNS:      reg.Histogram("wal_fsync_ns", "ns"),
		groupSize:    reg.Histogram("wal_group_size", "records"),
		checkpoints:  reg.Counter("checkpoint_total"),
		checkpointNS: reg.Histogram("checkpoint_ns", "ns"),
	}
}

// rule returns the per-rule series, creating it on first use. Taken on
// commit/abort paths only, never inside a firing's lock section.
func (em *engineMetrics) rule(name string) *ruleSeries {
	em.mu.Lock()
	defer em.mu.Unlock()
	rs := em.rules[name]
	if rs == nil {
		rs = &ruleSeries{
			commits:  em.reg.Counter("rule_commits_total", obs.L("rule", name)),
			aborts:   em.reg.Counter("rule_aborts_total", obs.L("rule", name)),
			commitNS: em.reg.Histogram("rule_commit_latency_ns", "ns", obs.L("rule", name)),
		}
		em.rules[name] = rs
	}
	return rs
}
