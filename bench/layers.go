package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pdps/internal/engine"
	"pdps/internal/lang"
	"pdps/internal/obs"
	"pdps/internal/sched"
	"pdps/internal/server"
	"pdps/internal/storage"
	"pdps/internal/trace"
	"pdps/internal/wm"
)

// metricDef names a metric and its unit. End-to-end metrics also carry
// their direction and the share of the baseline's median by which they
// may get worse before -compare calls it a regression; BENCHMARK.json
// states the same bounds and bench_test.go keeps the two in step.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
	bound      float64
}

// endToEnd lists the end-to-end metrics, measured only in the untraced
// window. Two figures a reader may expect are not in the list. Failures:
// a share that must be 0 cannot carry a relative bound, so they are
// reported as failed/attempted and through the exit code. The median
// cycle latency: on the service workloads a cycle either meets a GC
// cycle and the other tenant's log copy or it does not, the two modes
// hold about half the cycles each, and the median flips between them
// (1.6 to 5.4 ms across slices whose durations agree within 3%); it is
// reported as the per-layer diagnostic cycle.p50_ms, and the gated
// latency figures are p90 and, through firings_per_s, the mean.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"firings_per_s", "1/s", true, 0.25},
	{"cycle_p90_ms", "ms", false, 0.25},
	{"cpu_us_per_firing", "us", false, 0.25},
	{"allocs_per_firing", "1", false, 0.03},
	{"bytes_per_firing", "B", false, 0.03},
	{"live_heap_mb", "MB", false, 0.25},
}

// perLayer lists the per-layer metrics, measured in the traced run.
// Every workload reports every one; a layer a workload bypasses
// reports 0.
var perLayer = []metricDef{
	{name: "lang.parse_wme_ns_per_event", unit: "ns"},
	{name: "lang.parse_program_ms", unit: "ms"},
	{name: "client.assert_p50_ms", unit: "ms"},
	{name: "client.assert_p99_ms", unit: "ms"},
	{name: "client.run_p50_ms", unit: "ms"},
	{name: "client.run_p99_ms", unit: "ms"},
	{name: "client.create_ms", unit: "ms"},
	{name: "server.codec_ns_per_cycle", unit: "ns"},
	{name: "server.wire_bytes_per_firing", unit: "B"},
	{name: "server.frames_per_cycle", unit: "1"},
	{name: "server.backpressure_share", unit: "1"},
	{name: "server.residual_ns_per_cycle", unit: "ns"},
	{name: "engine.build_ms", unit: "ms"},
	{name: "engine.run_ns_per_firing", unit: "ns"},
	{name: "engine.abort_share", unit: "1"},
	{name: "engine.skip_share", unit: "1"},
	{name: "engine.retries_per_firing", unit: "1"},
	{name: "engine.commit_apply_ns_per_firing", unit: "ns"},
	{name: "engine.journal_batch_mean", unit: "1"},
	{name: "engine.overhead_ns_per_firing", unit: "ns"},
	{name: "lock.acquire_ns_per_firing", unit: "ns"},
	{name: "lock.acquires_per_firing", unit: "1"},
	{name: "lock.waits_per_firing", unit: "1"},
	{name: "lock.wait_ns_per_firing", unit: "ns"},
	{name: "lock.conflicts_per_firing", unit: "1"},
	{name: "lock.rc_victims_per_firing", unit: "1"},
	{name: "lock.deadlocks_per_firing", unit: "1"},
	{name: "rete.insert_ns_per_wme", unit: "ns"},
	{name: "rete.remove_ns_per_wme", unit: "ns"},
	{name: "rete.conflict_set_ns_per_firing", unit: "ns"},
	{name: "cr.select_ns_per_firing", unit: "ns"},
	{name: "match.update_ns_per_firing", unit: "ns"},
	{name: "match.conflict_set_size_mean", unit: "1"},
	{name: "rete.index_probes_per_firing", unit: "1"},
	{name: "rete.scan_candidates_per_firing", unit: "1"},
	{name: "rete.alpha_probes_per_firing", unit: "1"},
	{name: "wm.apply_ns_per_firing", unit: "ns"},
	{name: "wm.writes_per_firing", unit: "1"},
	{name: "storage.append_ns_per_record", unit: "ns"},
	{name: "storage.sync_p50_us", unit: "us"},
	{name: "storage.sync_p99_us", unit: "us"},
	{name: "storage.fsyncs_per_commit", unit: "1"},
	{name: "storage.group_size_mean", unit: "1", higher: true},
	{name: "storage.wal_bytes_per_firing", unit: "B"},
	{name: "storage.recover_ms", unit: "ms"},
	{name: "trace.append_ns_per_firing", unit: "ns"},
	{name: "trace.events_copy_ns_per_firing", unit: "ns"},
	{name: "trace.stream_bytes_per_firing", unit: "B"},
	{name: "cycle.p50_ms", unit: "ms"},
	{name: "gc.cycles", unit: "1"},
	{name: "gc.pause_ms_total", unit: "ms"},
	{name: "tracing.overhead_share", unit: "1"},
	{name: "firings_per_cycle", unit: "1"},
}

// ledgerRow is one line of a workload's firing ledger: what a layer
// costs per firing and its share of the ledger's base.
type ledgerRow struct {
	Layer       string  `json:"layer"`
	NSPerFiring float64 `json:"ns_per_firing"`
	Share       float64 `json:"share"`
	Residual    bool    `json:"residual,omitempty"`
}

// layerReport is what a traced run yields: the per-layer metrics and
// the ledger with the name of the base its shares refer to.
type layerReport struct {
	metrics map[string]float64
	base    string
	ledger  []ledgerRow
}

// ledger turns per-firing layer costs into rows against a base and
// appends the residual row: the part of the base no replayed layer
// accounts for.
func ledger(base float64, residual string, rows []ledgerRow) []ledgerRow {
	var sum float64
	for i := range rows {
		rows[i].Share = ratio(rows[i].NSPerFiring, base)
		sum += rows[i].NSPerFiring
	}
	return append(rows, ledgerRow{Layer: residual, NSPerFiring: base - sum,
		Share: ratio(base-sum, base), Residual: true})
}

// countMetrics fills the metrics that are counts from the engines' own
// registries, per committed firing.
func countMetrics(m map[string]float64, c counts) {
	commits := c["engine_commits_total"]
	aborts, skips := c["engine_aborts_total"], c["engine_skips_total"]
	per := func(name string) float64 { return ratio(c[name], commits) }
	m["engine.abort_share"] = ratio(aborts, commits+aborts)
	m["engine.skip_share"] = ratio(skips, commits+aborts+skips)
	m["engine.retries_per_firing"] = per("engine_retries_total")
	m["engine.commit_apply_ns_per_firing"] = per("engine_commit_apply_ns#sum")
	m["engine.journal_batch_mean"] = ratio(c["engine_journal_batch_size#sum"], c["engine_journal_batch_size#count"])
	m["lock.acquires_per_firing"] = per("lock_acquires_total")
	m["lock.waits_per_firing"] = per("lock_waits_total")
	m["lock.wait_ns_per_firing"] = per("lock_wait_ns#sum")
	m["lock.conflicts_per_firing"] = per("lock_conflicts_total")
	m["lock.rc_victims_per_firing"] = per("lock_rc_victims_total")
	m["lock.deadlocks_per_firing"] = per("lock_deadlocks_total")
	m["match.update_ns_per_firing"] = per("match_update_ns#sum")
	m["rete.index_probes_per_firing"] = per("rete_index_probes_total")
	m["rete.scan_candidates_per_firing"] = per("rete_scan_candidates_total")
	m["rete.alpha_probes_per_firing"] = per("rete_alpha_probes_total")
	m["wm.writes_per_firing"] = per("wm_writes_total")
}

// replayMetrics fills the metrics the layer replays produce.
func replayMetrics(m map[string]float64, lt *layerTimes) {
	m["rete.insert_ns_per_wme"] = ratio(float64(lt.reteInsert), float64(lt.inserts))
	m["rete.remove_ns_per_wme"] = ratio(float64(lt.reteRemove), float64(lt.removes))
	m["rete.conflict_set_ns_per_firing"] = lt.perFiring(lt.conflictSet)
	m["cr.select_ns_per_firing"] = lt.perFiring(lt.crSelect)
	m["match.conflict_set_size_mean"] = ratio(float64(lt.csSizeSum), float64(lt.firings))
	m["wm.apply_ns_per_firing"] = lt.perFiring(lt.wmApply)
	m["lock.acquire_ns_per_firing"] = lt.perFiring(lt.lockAcquire)
	m["trace.append_ns_per_firing"] = lt.perFiring(lt.traceAppend)
	m["trace.events_copy_ns_per_firing"] = lt.perFiring(lt.eventsCopy)
}

// processMetrics fills the process-wide rows.
func processMetrics(m map[string]float64, w, ref *window) {
	m["cycle.p50_ms"], _ = percentile(sortedCopy(durationsMS(w.keptSamples)), 0.5)
	m["gc.cycles"] = float64(w.gcCycles)
	m["gc.pause_ms_total"] = float64(w.gcPause) / float64(time.Millisecond)
	m["tracing.overhead_share"] = 1 - ratio(w.firingsPerS(), ref.firingsPerS())
	m["firings_per_cycle"] = ratio(float64(w.firings), float64(w.cycles-w.failed))
}

// layers for an embedded workload: spans around build and run, counts
// from the registry every traced engine shared, and the layer replays
// over the kept rounds' captured commit records. The ledger's base is
// the untraced window's CPU per firing.
func (r *embRunner) layers(w, ref *window) (*layerReport, error) {
	m := make(map[string]float64)
	agg := aggregate(w.spans)
	firings := float64(w.firings)
	c := counts{}
	c.add(r.reg.Snapshot())
	countMetrics(m, c)

	lt := &layerTimes{}
	for _, rd := range r.kept {
		seq := &sequence{rules: rd.entry.prog.Rules, initial: rd.initial,
			records: rd.records, serial: r.kind == matchJoin}
		if err := replayLayers(seq, false, lt); err != nil {
			return nil, err
		}
	}
	replayMetrics(m, lt)
	if st := agg["engine.build"]; st != nil {
		m["engine.build_ms"] = ratio(float64(st.Total)/float64(time.Millisecond), float64(st.Count))
	}
	m["engine.run_ns_per_firing"] = nsPer(agg, "engine.run", firings)
	processMetrics(m, w, ref)

	build := nsPer(agg, "engine.build", firings)
	rows := ledger(ref.cpuNSPerFiring(), "engine.overhead", []ledgerRow{
		{Layer: "engine.build", NSPerFiring: build},
		{Layer: "lock", NSPerFiring: m["lock.acquire_ns_per_firing"]},
		{Layer: "rete", NSPerFiring: lt.perFiring(lt.reteInsert + lt.reteRemove + lt.conflictSet)},
		{Layer: "cr", NSPerFiring: m["cr.select_ns_per_firing"]},
		{Layer: "wm", NSPerFiring: m["wm.apply_ns_per_firing"]},
		{Layer: "trace", NSPerFiring: m["trace.append_ns_per_firing"]},
	})
	m["engine.overhead_ns_per_firing"] = rows[len(rows)-1].NSPerFiring
	return &layerReport{m, "cpu ns per firing (untraced window)", rows}, nil
}

// shadow re-runs a verified service session inside the harness on an
// engine.Session built the way the server builds one, with the capture
// backend as its storage: the tuples are parsed, asserted, logged and
// stepped in the recorded order, a span around each call. It yields
// the session's record sequence for the layer replays, and on the
// durable workload the storage spans (the capture wraps a real file
// backend, synced where the server syncs). The commit sequence must
// equal the one the server streamed.
func (r *svcRunner) shadow(s *svcSession) (*sequence, error) {
	sp := r.tr.begin("lang.parse_program", 0, 0)
	prog, err := lang.Parse(s.program)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	capt := &capture{tr: r.tr}
	opts := engine.Options{Storage: capt, Clock: sched.Immediate{}}
	if r.durable {
		dir := filepath.Join(r.root, "shadow")
		f, err := storage.OpenFile(dir, storage.FileOptions{})
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		capt.inner = f
		opts.Restore = wm.NewStore()
	}
	defer capt.Close()
	sp = r.tr.begin("engine.build", 0, 0)
	sess, err := engine.NewSession(prog, opts)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	var streamed []trace.Event
	for cyc, c := range s.replay {
		streamed = append(streamed, server.Commits(c.events)...)
		sp = r.tr.begin("lang.parse_wme", 0, cyc+1)
		parsed := make([]engine.InitialWME, len(c.tuples))
		for i, src := range c.tuples {
			if parsed[i], err = lang.ParseWME(src); err != nil {
				return nil, err
			}
		}
		r.tr.end(sp)
		var delta wm.Delta
		for _, iw := range parsed {
			delta.Adds = append(delta.Adds, sess.AssertWME(iw.Class, iw.Attrs))
		}
		sp = r.tr.begin("storage.ingest", 0, cyc+1)
		capt.parent = sp
		if _, err := capt.Append(&storage.Record{Delta: &delta}); err != nil {
			return nil, err
		}
		if err := capt.Sync(); err != nil {
			return nil, err
		}
		r.tr.end(sp)
		for {
			sp = r.tr.begin("engine.step", 0, cyc+1)
			capt.parent = sp
			name, err := sess.Step()
			r.tr.end(sp)
			if err != nil {
				return nil, err
			}
			if name == "" {
				break
			}
		}
	}
	i := 0
	for _, rec := range capt.records {
		if rec.Rule == "" {
			continue
		}
		if i >= len(streamed) || streamed[i].Inst != rec.Inst {
			return nil, fmt.Errorf("shadow run diverged from the streamed trace at commit %d", i)
		}
		i++
	}
	if i != len(streamed) {
		return nil, fmt.Errorf("shadow run committed %d firings, the server streamed %d", i, len(streamed))
	}
	return &sequence{rules: prog.Rules, records: capt.records, serial: true}, nil
}

// layers for a service workload: spans around the client calls, counts
// from the server's registry and every session engine's, the shadow
// run and the layer replays over its sequence. The ledger's base is
// the untraced window's cycle time per firing — what a tenant waits —
// because an fsync is waited for, not computed.
func (r *svcRunner) layers(w, ref *window) (*layerReport, error) {
	if r.kept == nil {
		return nil, fmt.Errorf("traced window closed no full retained session to replay")
	}
	m := make(map[string]float64)
	countMetrics(m, r.total)
	commits := r.total["engine_commits_total"]
	fpc := float64(2 * r.cfg.batch)

	seq, err := r.shadow(r.kept)
	if err != nil {
		return nil, err
	}
	lt := &layerTimes{}
	if err := replayLayers(seq, true, lt); err != nil {
		return nil, err
	}
	replayMetrics(m, lt)
	first := r.kept.replay[0]
	codec, err := replayCodec(r.kept.id, first.tuples, first.events, 200)
	if err != nil {
		return nil, err
	}
	m["server.codec_ns_per_cycle"] = codec
	if payload, err := server.EncodeResponse(&server.Response{Type: server.RespTrace,
		Session: r.kept.id, More: true, Events: first.events}); err == nil {
		m["trace.stream_bytes_per_firing"] = ratio(float64(len(payload)+4), float64(len(first.events)))
	}

	w.spans = r.tr.snapshot() // include the shadow run's spans
	agg := aggregate(w.spans)
	ms := float64(time.Millisecond)
	m["lang.parse_program_ms"] = nsPer(agg, "lang.parse_program", ms)
	m["lang.parse_wme_ns_per_event"] = nsPer(agg, "lang.parse_wme", float64(r.kept.cycles*r.cfg.batch))
	m["client.assert_p50_ms"] = spanPercentile(agg, "client.assert", 0.5, time.Millisecond)
	m["client.assert_p99_ms"] = spanPercentile(agg, "client.assert", 0.99, time.Millisecond)
	m["client.run_p50_ms"] = spanPercentile(agg, "client.run", 0.5, time.Millisecond)
	m["client.run_p99_ms"] = spanPercentile(agg, "client.run", 0.99, time.Millisecond)
	m["client.create_ms"] = spanPercentile(agg, "client.create", 0.5, time.Millisecond)
	m["engine.build_ms"] = nsPer(agg, "engine.build", ms)
	shadowFirings := float64(lt.firings)
	m["engine.run_ns_per_firing"] = nsPer(agg, "engine.step", shadowFirings)

	snap := r.srv.Metrics().Snapshot()
	asserts := float64(snap.Counter("server_requests_total", obs.L("type", server.ReqAssert)))
	var requests float64
	for _, p := range snap.Counters {
		if p.Name == "server_requests_total" {
			requests += float64(p.Value)
		}
	}
	m["server.wire_bytes_per_firing"] = ratio(float64(snap.Counter("server_bytes_in_total")+
		snap.Counter("server_bytes_out_total")), commits)
	m["server.frames_per_cycle"] = ratio(float64(snap.Counter("server_frames_in_total")+
		snap.Counter("server_frames_out_total")), asserts)
	m["server.backpressure_share"] = ratio(float64(snap.Counter("server_ingest_backpressure_total")), requests)

	var storagePerFiring float64
	if r.durable {
		records := float64(len(seq.records))
		m["storage.append_ns_per_record"] = nsPer(agg, "storage.append", records)
		m["storage.sync_p50_us"] = spanPercentile(agg, "storage.sync", 0.5, time.Microsecond)
		m["storage.sync_p99_us"] = spanPercentile(agg, "storage.sync", 0.99, time.Microsecond)
		// The server syncs once per acknowledged assert batch on top of
		// the engine's one sync per commit group.
		m["storage.fsyncs_per_commit"] = ratio(r.total["wal_fsync_total"]+asserts, commits)
		m["storage.group_size_mean"] = ratio(r.total["wal_group_size#sum"], r.total["wal_group_size#count"])
		m["storage.wal_bytes_per_firing"] = ratio(float64(r.walBytes), float64(r.walFirings))
		var sum time.Duration
		for _, d := range r.recoverNS {
			sum += d
		}
		m["storage.recover_ms"] = ratio(float64(sum)/ms, float64(len(r.recoverNS)))
		storagePerFiring = nsPer(agg, "storage.append", shadowFirings) + nsPer(agg, "storage.sync", shadowFirings)
	}
	processMetrics(m, w, ref)

	// A step's self time excludes the storage calls made under it; what
	// the replayed layers do not explain of it is the engine's own.
	reteNS := lt.perFiring(lt.reteInsert + lt.reteRemove + lt.conflictSet)
	stepSelf := selfNSPer(agg, "engine.step", shadowFirings)
	engineNS := stepSelf - lt.perFiring(lt.conflictSet+lt.crSelect+lt.wmApply+lt.traceAppend+
		lt.reteInsert+lt.reteRemove-lt.reteIngest)
	m["engine.overhead_ns_per_firing"] = engineNS
	rows := ledger(ratio(ref.cycleMeanNS(), fpc), "server.residual", []ledgerRow{
		{Layer: "lang", NSPerFiring: m["lang.parse_wme_ns_per_event"] * float64(r.cfg.batch) / fpc},
		{Layer: "server.codec", NSPerFiring: codec / fpc},
		{Layer: "engine.overhead", NSPerFiring: engineNS},
		{Layer: "rete", NSPerFiring: reteNS},
		{Layer: "cr", NSPerFiring: m["cr.select_ns_per_firing"]},
		{Layer: "wm", NSPerFiring: m["wm.apply_ns_per_firing"]},
		{Layer: "trace", NSPerFiring: m["trace.append_ns_per_firing"] + m["trace.events_copy_ns_per_firing"]},
		{Layer: "storage", NSPerFiring: storagePerFiring},
	})
	m["server.residual_ns_per_cycle"] = rows[len(rows)-1].NSPerFiring * fpc
	return &layerReport{m, "cycle wall ns per firing (untraced window)", rows}, nil
}
