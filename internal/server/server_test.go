package server

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pdps/internal/engine"
	"pdps/internal/lang"
	"pdps/internal/sched"
	"pdps/internal/wm"
)

// startServer boots a loopback server with an immediate clock and
// registers a cleanup close.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Clock == nil {
		cfg.Clock = sched.Immediate{}
	}
	srv := New(cfg)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// tenantProgram is the per-tenant test workload: every ingested event
// is absorbed into a done marker, which a second rule clears — two
// commits per event, one WME created and two removed, so the streamed
// trace exercises both remove and make actions.
func tenantProgram(tenant string) string {
	return fmt.Sprintf(`
(p absorb (event ^tenant %s ^seq <s>) --> (remove 1) (make done ^tenant %s ^seq <s>))
(p clear  (done  ^tenant %s ^seq <s>) --> (remove 1))`, tenant, tenant, tenant)
}

func eventTuple(tenant string, seq int) string {
	return fmt.Sprintf("(event ^tenant %s ^seq %d)", tenant, seq)
}

// checkAdmissible verifies a tenant's streamed commit trace against
// the single-thread execution semantics: the base working memory is
// everything the tenant ingested, and the commit subsequence must be
// a valid single-thread execution from it (Definition 3.2).
func checkAdmissible(program string, ingested []string, events []TraceEvent) error {
	prog, err := lang.Parse(program)
	if err != nil {
		return err
	}
	base := wm.NewStore()
	for _, iw := range prog.WMEs {
		base.Insert(iw.Class, iw.Attrs)
	}
	for _, src := range ingested {
		iw, err := lang.ParseWME(src)
		if err != nil {
			return err
		}
		base.Insert(iw.Class, iw.Attrs)
	}
	return engine.CheckTraceFrom(base, prog.Rules, Commits(events))
}

// runTenant drives one tenant end to end: create, three
// ingest-then-run batches, a trace drain, a working-memory dump, and
// close. It returns the streamed events and what was ingested.
func runTenant(addr string, tenant string, batches, perBatch int) (events []TraceEvent, ingested []string, err error) {
	c, err := Dial(addr)
	if err != nil {
		return nil, nil, err
	}
	defer c.Close()
	program := tenantProgram(tenant)
	id, _, _, err := c.Create(program, SessionOptions{})
	if err != nil {
		return nil, nil, fmt.Errorf("create: %w", err)
	}
	seq := 0
	for b := 0; b < batches; b++ {
		tuples := make([]string, 0, perBatch)
		for k := 0; k < perBatch; k++ {
			tuples = append(tuples, eventTuple(tenant, seq))
			seq++
		}
		if _, err := c.Assert(id, tuples...); err != nil {
			return nil, nil, fmt.Errorf("assert: %w", err)
		}
		ingested = append(ingested, tuples...)
		res, err := c.Run(id, 0)
		if err != nil {
			return nil, nil, fmt.Errorf("run: %w", err)
		}
		if !res.Quiescent {
			return nil, nil, fmt.Errorf("tenant %s batch %d: not quiescent after %d firings", tenant, b, res.Fired)
		}
		if want := 2 * perBatch; res.Fired != want {
			return nil, nil, fmt.Errorf("tenant %s batch %d: fired %d, want %d", tenant, b, res.Fired, want)
		}
		events = append(events, res.Events...)
	}
	tail, err := c.Trace(id)
	if err != nil {
		return nil, nil, fmt.Errorf("trace: %w", err)
	}
	events = append(events, tail...)
	wmes, err := c.WMEs(id)
	if err != nil {
		return nil, nil, fmt.Errorf("wmes: %w", err)
	}
	if len(wmes) != 0 {
		return nil, nil, fmt.Errorf("tenant %s: %d WMEs left after quiescence: %v", tenant, len(wmes), wmes)
	}
	if err := c.CloseSession(id); err != nil {
		return nil, nil, fmt.Errorf("close: %w", err)
	}
	return events, ingested, nil
}

// TestLoopbackManyTenants is the acceptance suite: 64 concurrent
// tenant sessions over loopback, each create→ingest→run→trace→close,
// every streamed commit trace admissible under the single-thread
// semantics, and no tenant ever observing another tenant's WMEs.
func TestLoopbackManyTenants(t *testing.T) {
	const tenants = 64
	srv := startServer(t, Config{MaxSessions: tenants + 8})
	addr := srv.Addr().String()

	type outcome struct {
		tenant   string
		events   []TraceEvent
		ingested []string
		err      error
	}
	results := make(chan outcome, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%03d", i)
			ev, in, err := runTenant(addr, tenant, 3, 8)
			results <- outcome{tenant: tenant, events: ev, ingested: in, err: err}
		}(i)
	}
	wg.Wait()
	close(results)

	for out := range results {
		if out.err != nil {
			t.Fatal(out.err)
		}
		if got := len(Commits(out.events)); got != 48 {
			t.Fatalf("tenant %s: %d commits streamed, want 48", out.tenant, got)
		}
		// Isolation: every matched WME in the streamed trace carries
		// this tenant's marker and no other tenant's.
		marker := "^tenant " + out.tenant
		for _, e := range out.events {
			for _, fp := range e.WMEs {
				if !strings.Contains(fp, marker) {
					t.Fatalf("tenant %s: foreign WME in trace: %s", out.tenant, fp)
				}
			}
		}
		if err := checkAdmissible(tenantProgram(out.tenant), out.ingested, out.events); err != nil {
			t.Fatalf("tenant %s: streamed commit trace not admissible: %v", out.tenant, err)
		}
	}

	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("%d sessions still live after all tenants closed", n)
	}
	snap := srv.Metrics().Snapshot()
	if got := snap.Counter("server_sessions_total"); got != tenants {
		t.Fatalf("server_sessions_total = %d, want %d", got, tenants)
	}
	if v, peak := snap.Gauge("server_sessions_active"); v != 0 || peak < 1 {
		t.Fatalf("server_sessions_active = %d (peak %d), want 0 with positive peak", v, peak)
	}
	if snap.Counter("server_bytes_in_total") == 0 || snap.Counter("server_bytes_out_total") == 0 {
		t.Fatal("byte counters did not move")
	}
}

// TestSessionLifecycleBasics covers the small-surface commands:
// attach, ping, retract, per-session metrics, typed not-found errors.
func TestSessionLifecycleBasics(t *testing.T) {
	srv := startServer(t, Config{})
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	id, recovered, lsn, err := c.Create(tenantProgram("a"), SessionOptions{Strategy: "fifo"})
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 0 || lsn != 0 {
		t.Fatalf("fresh ephemeral session reports recovery %d/%d", recovered, lsn)
	}
	if err := c.Attach(id); err != nil {
		t.Fatal(err)
	}
	ids, err := c.Assert(id, eventTuple("a", 1), eventTuple("a", 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("asserted %d ids, want 2", len(ids))
	}
	if err := c.Retract(id, ids[0]); err != nil {
		t.Fatal(err)
	}
	wmes, err := c.WMEs(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(wmes) != 1 {
		t.Fatalf("store has %d WMEs after retract, want 1", len(wmes))
	}
	if err := c.Retract(id, 9999); err == nil {
		t.Fatal("retract of unknown WME succeeded")
	} else if se, ok := err.(*ServerError); !ok || se.Code != CodeNotFound {
		t.Fatalf("retract error = %v, want typed %s", err, CodeNotFound)
	}
	raw, err := c.Metrics(id)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "wm_writes_total") && !strings.Contains(string(raw), "match_") {
		t.Fatalf("session metrics snapshot looks empty: %.120s", raw)
	}
	if err := c.CloseSession(id); err != nil {
		t.Fatal(err)
	}
	if err := c.Attach(id); err == nil {
		t.Fatal("attach to closed session succeeded")
	} else if se, ok := err.(*ServerError); !ok || se.Code != CodeNotFound {
		t.Fatalf("attach error = %v, want typed %s", err, CodeNotFound)
	}
}

// TestClosedSessionsReleasedByConnection pins that a closed session
// stops being owned by the connection that created it, whichever
// connection sends the close: a long-lived client creating and closing
// sessions in a loop must not keep every closed engine reachable.
func TestClosedSessionsReleasedByConnection(t *testing.T) {
	srv := startServer(t, Config{})
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	other, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	for i := 0; i < 50; i++ {
		id, _, _, err := c.Create(tenantProgram("a"), SessionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		closer := c
		if i%2 == 1 {
			closer = other
		}
		if err := closer.CloseSession(id); err != nil {
			t.Fatal(err)
		}
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for conn := range srv.conns {
		conn.mu.Lock()
		n := len(conn.owned)
		conn.mu.Unlock()
		if n != 0 {
			t.Fatalf("connection still owns %d closed sessions", n)
		}
	}
}

// TestAdmissionControl pins the session-table bound: creates beyond
// MaxSessions are rejected with a typed overloaded error and counted.
func TestAdmissionControl(t *testing.T) {
	srv := startServer(t, Config{MaxSessions: 2})
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 2; i++ {
		if _, _, _, err := c.Create(tenantProgram("a"), SessionOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	_, _, _, err = c.Create(tenantProgram("a"), SessionOptions{})
	if !IsOverloaded(err) {
		t.Fatalf("third create error = %v, want overloaded", err)
	}
	if got := srv.Metrics().Snapshot().Counter("server_sessions_rejected_total"); got != 1 {
		t.Fatalf("server_sessions_rejected_total = %d, want 1", got)
	}
}

// TestHaltStreams verifies a halt action terminates a run and is
// visible in the streamed trace.
func TestHaltStreams(t *testing.T) {
	srv := startServer(t, Config{})
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, _, _, err := c.Create(`(p stop (event ^tenant h ^seq <s>) --> (remove 1) (halt))`, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Assert(id, eventTuple("h", 1), eventTuple("h", 2)); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || res.Fired != 1 {
		t.Fatalf("run = %+v, want halted after 1 firing", res)
	}
	sawHalt := false
	for _, e := range res.Events {
		if e.Kind == "halt" {
			sawHalt = true
		}
	}
	if !sawHalt {
		t.Fatal("halt event not streamed")
	}
	// A halt ends one run, not the session: the next run fires the
	// second event (and halts on it).
	res, err = c.Run(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fired != 1 || !res.Halted {
		t.Fatalf("second run = %+v, want 1 firing then halt", res)
	}
}

// TestSessionAllocFlat: the bytes allocated per firing stay flat over a
// session's length. A server path that copied the whole trace log per
// step would make late cycles cost proportionally to the log. The
// workload is the svc-* shape: one session, 250 assert+run cycles of 8
// tuples, 16 firings each.
func TestSessionAllocFlat(t *testing.T) {
	const cycles, tuples, window = 250, 8, 10
	srv := startServer(t, Config{})
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, _, _, err := c.Create(tenantProgram("a"), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	alloc := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	var start, early, lateStart uint64
	seq := 0
	for cyc := 0; cyc < cycles; cyc++ {
		switch cyc {
		case 0:
			start = alloc()
		case window:
			early = alloc() - start
		case cycles - window:
			lateStart = alloc()
		}
		batch := make([]string, tuples)
		for i := range batch {
			seq++
			batch[i] = eventTuple("a", seq)
		}
		if _, err := c.Assert(id, batch...); err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fired != 2*tuples || !res.Quiescent {
			t.Fatalf("cycle %d: run = %+v, want %d firings to quiescence", cyc, res, 2*tuples)
		}
	}
	if late := alloc() - lateStart; late > 2*early {
		t.Fatalf("last %d cycles allocated %d B, first %d allocated %d B: per-firing cost grows with session length",
			window, late, window, early)
	}
}

// waitFor polls until cond holds or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
