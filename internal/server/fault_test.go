package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"pdps/internal/engine"
	"pdps/internal/lang"
	"pdps/internal/sched"
	"pdps/internal/storage"
	"pdps/internal/trace"
	"pdps/internal/wm"
)

// spinProgram never quiesces: each firing replaces the counter WME
// with the next value, so a run command keeps streaming until its
// bound or the session dies — the workload for mid-stream kills.
const spinProgram = `(p spin (counter ^n <n>) --> (remove 1) (make counter ^n (+ <n> 1)))`

// goroutineBaseline samples the current goroutine count after a GC
// settle.
func goroutineBaseline() int {
	runtime.GC()
	return runtime.NumGoroutine()
}

// TestAbruptClientDeath kills a client mid-run, mid-trace-stream, and
// asserts the server reaps the session without leaking goroutines or
// wedging the surviving tenant.
func TestAbruptClientDeath(t *testing.T) {
	baseline := goroutineBaseline()
	srv := New(Config{Clock: sched.Immediate{}})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()

	// Victim tenant: start an unbounded run and sever the socket once
	// trace pushes are flowing.
	victim, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	vid, _, _, err := victim.Create(spinProgram, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := victim.Assert(vid, "(counter ^n 0)"); err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() {
		_, err := victim.Run(vid, 10_000_000)
		runDone <- err
	}()
	waitFor(t, 5*time.Second, "first trace push", func() bool {
		return srv.Metrics().Snapshot().Counter("server_trace_events_streamed_total") > 0
	})
	victim.Close() // abrupt: the server learns via the broken socket
	if err := <-runDone; err == nil {
		t.Fatal("victim run returned nil after connection kill")
	}
	waitFor(t, 5*time.Second, "victim session reaped", func() bool {
		return srv.SessionCount() == 0
	})

	// A fresh tenant must be completely unaffected.
	ev, in, err := runTenant(addr, "alive", 2, 4)
	if err != nil {
		t.Fatalf("surviving tenant failed after victim kill: %v", err)
	}
	if err := checkAdmissible(tenantProgram("alive"), in, ev); err != nil {
		t.Fatal(err)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+2
	})
}

// TestHalfWrittenFrame feeds the server a frame header whose payload
// never arrives, an oversized length prefix, and unparseable JSON —
// each must produce a typed error or a clean connection teardown,
// never a panic or a wedged server, and sessions owned by the broken
// connection must be reaped.
func TestHalfWrittenFrame(t *testing.T) {
	srv := startServer(t, Config{MaxFrame: 1 << 16})
	addr := srv.Addr().String()

	// Half-written frame: header says 100 bytes, only 10 arrive.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	nc.Write(hdr[:])
	nc.Write(make([]byte, 10))
	nc.Close()

	// Oversized length prefix: connection must be dropped.
	nc2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(hdr[:], 1<<30)
	nc2.Write(hdr[:])
	buf := make([]byte, 1)
	nc2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc2.Read(buf); err == nil {
		t.Fatal("server kept the connection after an oversized frame")
	}
	nc2.Close()

	// Valid frame, garbage JSON: typed bad_request, connection stays up.
	nc3, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(nc3, []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	nc3.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := ReadFrame(nc3, DefaultMaxFrame)
	if err != nil {
		t.Fatalf("no error response to garbage JSON: %v", err)
	}
	resp, err := DecodeResponse(payload)
	if err != nil || resp.Type != RespError || resp.Code != CodeBadRequest {
		t.Fatalf("garbage JSON answer = %+v, %v; want typed %s", resp, err, CodeBadRequest)
	}
	nc3.Close()

	// A session created on a connection that then dies half-frame must
	// be reaped with it.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Create(tenantProgram("hw"), SessionOptions{}); err != nil {
		t.Fatal(err)
	}
	if srv.SessionCount() != 1 {
		t.Fatalf("session count = %d, want 1", srv.SessionCount())
	}
	binary.BigEndian.PutUint32(hdr[:], 64)
	c.c.Write(hdr[:]) // half a frame, then vanish
	c.Close()
	waitFor(t, 5*time.Second, "orphaned session reaped", func() bool {
		return srv.SessionCount() == 0
	})

	// The server still serves new tenants.
	if _, _, err := runTenant(addr, "after", 1, 4); err != nil {
		t.Fatal(err)
	}
}

// TestStorageRestart kills a durable tenant mid-lifecycle and
// re-creates the session on the same storage directory: recovery must
// match PR 6 semantics — acked ingest and acked commits survive, the
// recovered store is byte-identical to an independent replay of the
// log, and the recovered trace tail is admissible from the base.
func TestStorageRestart(t *testing.T) {
	root := t.TempDir()
	srv := startServer(t, Config{StorageRoot: root})
	addr := srv.Addr().String()
	program := tenantProgram("d")

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	id, recovered, lsn, err := c.Create(program, SessionOptions{StorageDir: "tenant-d"})
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 0 || lsn != 0 {
		t.Fatalf("fresh durable session reports recovery %d/%d", recovered, lsn)
	}
	tuples := make([]string, 6)
	for i := range tuples {
		tuples[i] = eventTuple("d", i)
	}
	if _, err := c.Assert(id, tuples...); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(id, 3) // partial run: 3 of 12 possible commits
	if err != nil {
		t.Fatal(err)
	}
	if res.Fired != 3 {
		t.Fatalf("partial run fired %d, want 3", res.Fired)
	}
	before, err := c.WMEs(id)
	if err != nil {
		t.Fatal(err)
	}
	c.Close() // abrupt death, no session close

	waitFor(t, 5*time.Second, "durable session reaped", func() bool {
		return srv.SessionCount() == 0
	})

	// Restart: the same directory must recover 1 ingest record + 3
	// commit records (LSN 4) and reproduce the pre-kill store.
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	var id2 string
	var rec2 int
	var lsn2 uint64
	waitFor(t, 5*time.Second, "storage dir released for re-create", func() bool {
		id2, rec2, lsn2, err = c2.Create(program, SessionOptions{StorageDir: "tenant-d"})
		return err == nil || !IsOverloaded(err)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec2 != 4 || lsn2 != 4 {
		t.Fatalf("recovery = %d records, LSN %d; want 4, 4", rec2, lsn2)
	}
	after, err := c2.WMEs(id2)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("recovered store diverged:\n before: %v\n after:  %v", before, after)
	}

	// The recovered session keeps running to quiescence: 6 events × 2
	// commits minus the 3 already durable.
	res2, err := c2.Run(id2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Quiescent || res2.Fired != 9 {
		t.Fatalf("post-recovery run = %+v, want quiescent after 9 firings", res2)
	}
	if err := c2.CloseSession(id2); err != nil {
		t.Fatal(err)
	}

	// Independent replay: open the directory directly and check the
	// recovered trace tail is admissible from the ingested base.
	f, err := storage.OpenFile(root+"/tenant-d", storage.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec, err := f.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.LSN != 13 { // 1 ingest + 3 commits + 9 commits
		t.Fatalf("final LSN = %d, want 13", rec.LSN)
	}
	prog, err := lang.Parse(program)
	if err != nil {
		t.Fatal(err)
	}
	base := wm.NewStore()
	var commits []trace.Event
	for _, r := range rec.Records {
		if r.Rule == "" {
			if err := base.ApplyLogged(r.Delta); err != nil {
				t.Fatal(err)
			}
			continue
		}
		commits = append(commits, trace.Event{Kind: trace.KindCommit, Rule: r.Rule, Inst: r.Inst, WMEs: r.WMEs})
	}
	if err := engine.CheckTraceFrom(base, prog.Rules, commits); err != nil {
		t.Fatalf("recovered commit trace not admissible: %v", err)
	}
	if rec.Store.Len() != 0 {
		t.Fatalf("final recovered store has %d WMEs, want 0", rec.Store.Len())
	}
}

// TestRefusedCreateLeavesStorageUnseeded creates a durable session with
// an unknown strategy: the create must be refused before its storage
// directory is opened, so a later create on the same directory starts
// fresh instead of recovering the refused session's initial WME.
func TestRefusedCreateLeavesStorageUnseeded(t *testing.T) {
	srv := startServer(t, Config{StorageRoot: t.TempDir()})
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	program := tenantProgram("r") + "\n(wme event ^tenant r ^seq 0)"

	_, _, _, err = c.Create(program, SessionOptions{Strategy: "bogus", StorageDir: "tenant-r"})
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeBadRequest {
		t.Fatalf("bad strategy create: err = %v, want %s", err, CodeBadRequest)
	}
	if want := `unknown strategy "bogus"`; !strings.Contains(se.Msg, want) {
		t.Fatalf("bad strategy create: message %q, want it to name %q", se.Msg, want)
	}

	id, recovered, lsn, err := c.Create(program, SessionOptions{StorageDir: "tenant-r"})
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 0 || lsn != 0 {
		t.Fatalf("create after a refused create recovered %d records (LSN %d); want 0, 0", recovered, lsn)
	}
	if err := c.CloseSession(id); err != nil {
		t.Fatal(err)
	}
}
