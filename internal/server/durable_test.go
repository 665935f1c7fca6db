package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"pdps/internal/obs"
	"pdps/internal/sched"
	"pdps/internal/storage"
	"pdps/internal/storage/storagetest"
)

// startFaultServer boots a loopback server whose durable sessions run
// over a storagetest.Faulty wrapper failing the at-th call that f
// names. Each created durable session's wrapper is sent on the
// returned channel.
func startFaultServer(t *testing.T, root string, f storagetest.Fault, at int) (*Server, <-chan *storagetest.Faulty) {
	t.Helper()
	made := make(chan *storagetest.Faulty, 4)
	srv := New(Config{StorageRoot: root, Clock: sched.Immediate{}})
	srv.wrapBackend = func(b storage.Backend) storage.Backend {
		fb := storagetest.New(b, f, at)
		made <- fb
		return fb
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, made
}

// events returns n event tuples for tenant.
func events(tenant string, from, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = eventTuple(tenant, from+i)
	}
	return out
}

// runFrames sends a run command and returns every trace frame pushed
// for it, then the run summary or the error that ended it.
func runFrames(c *Client, session string) (frames []*Response, summary *Response, err error) {
	ch, cancel, err := c.call(&Request{Type: ReqRun, Session: session})
	if err != nil {
		return nil, nil, err
	}
	defer cancel()
	for {
		resp, err := c.await(ch)
		if err != nil {
			return frames, nil, err
		}
		if resp.Type != RespTrace {
			return frames, resp, nil
		}
		frames = append(frames, resp)
	}
}

// recoverDir reopens a durable session's directory and returns what
// survived there.
func recoverDir(t *testing.T, dir string) *storage.Recovery {
	t.Helper()
	f, err := storage.OpenFile(dir, storage.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec, err := f.Recover()
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// checkRecoveredPrefix asserts that recovery kept every acked record:
// at least the acked ingest batches plus the streamed commits, with the
// streamed commits as the first commit records in order.
func checkRecoveredPrefix(t *testing.T, rec *storage.Recovery, ackedIngests int, streamed []TraceEvent) {
	t.Helper()
	commits := Commits(streamed)
	if want := storage.LSN(ackedIngests + len(commits)); rec.LSN < want {
		t.Fatalf("recovered LSN %d, want at least %d (%d acked ingests + %d streamed commits)",
			rec.LSN, want, ackedIngests, len(commits))
	}
	i := 0
	for _, r := range rec.Records {
		if r.Rule == "" || i == len(commits) {
			continue
		}
		if r.Inst != commits[i].Inst {
			t.Fatalf("recovered commit %d is %s, the client was streamed %s", i, r.Inst, commits[i].Inst)
		}
		i++
	}
	if i != len(commits) {
		t.Fatalf("recovered %d of the %d streamed commits", i, len(commits))
	}
}

// TestNoStreamAfterFailedSync injects an fsync failure mid-run: the
// third Sync of the session's backend (the ingest ack is the first, the
// push frame after 32 firings the second) fails. No frame pushed to the
// client may carry a commit that the last successful Sync does not
// cover, and the run must end with the storage error.
func TestNoStreamAfterFailedSync(t *testing.T) {
	root := t.TempDir()
	srv, made := startFaultServer(t, root, storagetest.SyncEIO, 3)
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, _, _, err := c.Create(tenantProgram("f"), SessionOptions{StorageDir: "f"})
	if err != nil {
		t.Fatal(err)
	}
	fb := <-made
	if _, err := c.Assert(id, events("f", 0, 40)...); err != nil {
		t.Fatal(err)
	}
	frames, summary, err := runFrames(c, id)
	var streamed []TraceEvent
	for _, fr := range frames {
		streamed = append(streamed, fr.Events...)
	}
	// One non-firing ingest record precedes the commits in the log.
	if durable := fb.Durable() - 1; len(Commits(streamed)) > durable {
		t.Fatalf("streamed %d commits, but the last successful fsync covers only %d",
			len(Commits(streamed)), durable)
	}
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeInternal || !strings.HasPrefix(se.Msg, "storage: ") {
		t.Fatalf("run ended with %v (summary %+v), want an internal storage error", err, summary)
	}
	if got := len(Commits(streamed)); got != runFlushEvery {
		t.Fatalf("streamed %d commits, want the %d of the first push frame", got, runFlushEvery)
	}
	if err := c.CloseSession(id); err != nil {
		t.Fatal(err)
	}
	checkRecoveredPrefix(t, recoverDir(t, filepath.Join(root, "f")), 1, streamed)
}

// TestDurableSessionFailStop injects each wrapper fault into a durable
// session's assert or run. After the first storage error every later
// Assert, Retract, Run, WMEs and Trace is refused with that error before
// it touches working memory, the backend sees no further Append or Sync
// (no fsync retry), and reopening the directory recovers a prefix that
// covers every acked record.
func TestDurableSessionFailStop(t *testing.T) {
	for _, tc := range []struct {
		fault storagetest.Fault
		at    int
		where string
	}{
		{storagetest.AppendEIO, 1, "assert"},
		{storagetest.AppendENOSPC, 1, "assert"},
		{storagetest.SyncEIO, 1, "assert"},
		{storagetest.AppendEIO, 10, "run"},
		{storagetest.AppendENOSPC, 10, "run"},
		{storagetest.SyncEIO, 2, "run"},
	} {
		t.Run(fmt.Sprintf("%s@%d", tc.fault, tc.at), func(t *testing.T) {
			root := t.TempDir()
			srv, made := startFaultServer(t, root, tc.fault, tc.at)
			c, err := Dial(srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			id, _, _, err := c.Create(tenantProgram("x"), SessionOptions{StorageDir: "x"})
			if err != nil {
				t.Fatal(err)
			}
			fb := <-made

			acked := 0
			var streamed []TraceEvent
			_, first := c.Assert(id, events("x", 0, 8)...)
			if first == nil {
				acked++
				var res RunResult
				res, first = c.Run(id, 0)
				streamed = res.Events
			}
			var se *ServerError
			if !errors.As(first, &se) || se.Code != CodeInternal || !strings.HasPrefix(se.Msg, "storage: ") {
				t.Fatalf("first failure = %v, want an internal storage error", first)
			}
			where := "run"
			if acked == 0 {
				where = "assert"
			}
			if where != tc.where {
				t.Fatalf("fault surfaced at %s, want %s", where, tc.where)
			}
			if len(streamed) != 0 {
				t.Fatalf("%d events streamed by a run whose only sync failed", len(streamed))
			}

			sess := srv.lookup(id)
			wmes := len(sess.eng.Store().All())
			appends, syncs := fb.Appends(), fb.Syncs()
			for _, probe := range []struct {
				name string
				call func() error
			}{
				{"assert", func() error { _, err := c.Assert(id, eventTuple("x", 99)); return err }},
				{"retract", func() error { return c.Retract(id, 1) }},
				{"run", func() error { _, err := c.Run(id, 0); return err }},
				{"wmes", func() error { _, err := c.WMEs(id); return err }},
				{"trace", func() error { _, err := c.Trace(id); return err }},
			} {
				if err := probe.call(); err == nil || err.Error() != first.Error() {
					t.Fatalf("%s after the failure = %v, want the first error %v", probe.name, err, first)
				}
			}
			if n := len(sess.eng.Store().All()); n != wmes {
				t.Fatalf("refused requests changed working memory: %d WMEs, was %d", n, wmes)
			}
			if fb.Appends() != appends || fb.Syncs() != syncs {
				t.Fatalf("refused requests reached the backend: appends %d→%d, syncs %d→%d",
					appends, fb.Appends(), syncs, fb.Syncs())
			}
			if err := c.CloseSession(id); err != nil {
				t.Fatal(err)
			}
			if fb.Syncs() != syncs {
				t.Fatalf("fsync retried after the failure: %d syncs, was %d", fb.Syncs(), syncs)
			}
			checkRecoveredPrefix(t, recoverDir(t, filepath.Join(root, "x")), acked, streamed)
		})
	}
}

// sessionMetrics fetches a session's engine registry over the wire.
func sessionMetrics(t *testing.T, c *Client, id string) obs.Snapshot {
	t.Helper()
	raw, err := c.Metrics(id)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestDurableRunFsyncsPerPush pins where a durable session fsyncs: one
// fsync per pushed trace frame, the terminal flush before the run reply
// included, and none per commit. A 16-firing run is one frame, so one
// fsync covering all 16 commits; a 70-firing run pushes after 32 and 64
// firings and before the reply, so three more fsyncs.
func TestDurableRunFsyncsPerPush(t *testing.T) {
	root := t.TempDir()
	srv, made := startFaultServer(t, root, storagetest.None, 0)
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, _, _, err := c.Create(tenantProgram("p"), SessionOptions{StorageDir: "p"})
	if err != nil {
		t.Fatal(err)
	}
	fb := <-made

	if _, err := c.Assert(id, events("p", 0, 8)...); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(id, 0)
	if err != nil || res.Fired != 16 {
		t.Fatalf("run = %+v, %v; want 16 firings", res, err)
	}
	snap := sessionMetrics(t, c, id)
	h, _ := snap.Histogram("wal_group_size")
	if fsyncs := snap.Counter("wal_fsync_total"); fsyncs != 1 || h.Sum != 16 {
		t.Fatalf("16 firings: wal_fsync_total = %d, wal_group_size sum %d; want 1 and 16", fsyncs, h.Sum)
	}

	if _, err := c.Assert(id, events("p", 8, 35)...); err != nil {
		t.Fatal(err)
	}
	frames, summary, err := runFrames(c, id)
	if err != nil || summary.Fired != 70 {
		t.Fatalf("run = %+v, %v; want 70 firings", summary, err)
	}
	if len(frames) != 3 {
		t.Fatalf("70 firings pushed %d frames, want 3", len(frames))
	}
	snap = sessionMetrics(t, c, id)
	h, _ = snap.Histogram("wal_group_size")
	if fsyncs := snap.Counter("wal_fsync_total"); fsyncs != 1+int64(len(frames)) || h.Sum != 86 {
		t.Fatalf("after 70 more firings: wal_fsync_total = %d, wal_group_size sum %d; want %d and 86",
			fsyncs, h.Sum, 1+len(frames))
	}
	// The backend also saw the two ingest acks.
	if fb.Syncs() != 2+1+len(frames) {
		t.Fatalf("backend saw %d syncs, want %d", fb.Syncs(), 2+1+len(frames))
	}
	if err := c.CloseSession(id); err != nil {
		t.Fatal(err)
	}
}
