package server

import (
	"fmt"
	"sync"

	"pdps/internal/engine"
	"pdps/internal/lang"
	"pdps/internal/storage"
	"pdps/internal/trace"
	"pdps/internal/wm"
)

// runFlushEvery is how many firings a run command batches before
// streaming a trace push frame to the client.
const runFlushEvery = 32

// runMaxDefault bounds a run command that names no Max.
const runMaxDefault = 10000

// task is one queued command plus the connection its replies go to.
// fn, when non-nil, is a direct actor callback — the seam the
// backpressure tests use to occupy the actor deterministically.
type task struct {
	req *Request
	c   *conn
	fn  func()
}

type submitResult uint8

const (
	submitOK submitResult = iota
	submitFull
	submitClosed
)

// session is one tenant: a single-thread interactive engine driven by
// a dedicated actor goroutine over a bounded dispatch queue. The
// submit protocol guarantees every successfully enqueued task gets a
// reply: submitters register in subWG under subMu before touching the
// queue, teardown flips closed under the same lock, wakes any blocked
// submitter via stop, waits for in-flight submits and only then closes
// the queue — so the actor's range loop observes every task.
type session struct {
	id    string
	srv   *Server
	owner *conn // the connection that created it
	eng   *engine.Session

	backend storage.Backend // nil for ephemeral sessions
	dir     string          // reserved storage dir, "" if none

	queue chan task
	stop  chan struct{} // closed by teardown: abort runs, wake submitters
	done  chan struct{} // closed by the actor after full cleanup

	subMu  sync.Mutex
	subWG  sync.WaitGroup
	closed bool

	once sync.Once

	traceSeq int // log events already streamed (actor-only)
}

// begin registers an in-flight submit attempt; it fails once teardown
// has flipped closed, so no submit can start after the queue closes.
func (s *session) begin() bool {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if s.closed {
		return false
	}
	s.subWG.Add(1)
	return true
}

// trySubmit enqueues without blocking.
func (s *session) trySubmit(t task) submitResult {
	if !s.begin() {
		return submitClosed
	}
	defer s.subWG.Done()
	select {
	case s.queue <- t:
		return submitOK
	default:
		return submitFull
	}
}

// blockSubmit enqueues, blocking the caller until the actor drains a
// slot or the session stops.
func (s *session) blockSubmit(t task) submitResult {
	if !s.begin() {
		return submitClosed
	}
	defer s.subWG.Done()
	select {
	case s.queue <- t:
		return submitOK
	case <-s.stop:
		return submitClosed
	}
}

// teardown initiates (and, across callers, deduplicates) session
// shutdown. It unregisters the session, stops new submits, wakes
// blocked ones, drops it from its owning connection — whichever
// connection sent the close — and closes the queue; the actor
// finishes the drain and the resource cleanup, then closes done.
func (s *session) teardown() {
	s.once.Do(func() {
		s.srv.unregister(s)
		s.subMu.Lock()
		s.closed = true
		s.subMu.Unlock()
		close(s.stop)
		s.owner.disown(s)
		s.subWG.Wait()
		close(s.queue)
	})
}

// stopped reports whether teardown has begun.
func (s *session) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// loop is the session actor: it owns the engine and the storage
// backend exclusively, so every mutation of tenant state is
// single-threaded — the multi-tenant parallelism of the server is
// across sessions, never within one.
func (s *session) loop() {
	defer s.srv.wg.Done()
	for t := range s.queue {
		if s.stopped() {
			if t.c != nil {
				t.c.sendErr(t.req, CodeClosed, "session "+s.id+" closed")
			}
			continue
		}
		s.handle(t)
	}
	if s.backend != nil {
		s.backend.Close()
	}
	s.srv.releaseDir(s.dir, s.id)
	close(s.done)
}

func (s *session) handle(t task) {
	if t.fn != nil {
		t.fn()
		return
	}
	switch t.req.Type {
	case ReqAssert:
		s.handleAssert(t)
	case ReqRetract:
		s.handleRetract(t)
	case ReqRun:
		s.handleRun(t)
	case ReqTrace:
		s.flushTrace(t, false, true)
	case ReqWMEs:
		s.handleWMEs(t)
	default:
		t.c.sendErr(t.req, CodeBadRequest, "unroutable request "+t.req.Type)
	}
}

// handleAssert parses and inserts the batch of tuple literals. On a
// durable session the batch is logged as one non-firing record and
// fsynced before the acknowledgment, so acked ingest survives a crash
// exactly like acked commits do (PR 6 semantics).
func (s *session) handleAssert(t task) {
	parsed := make([]engine.InitialWME, 0, len(t.req.WMEs))
	for _, src := range t.req.WMEs {
		iw, err := lang.ParseWME(src)
		if err != nil {
			t.c.sendErr(t.req, CodeBadRequest, fmt.Sprintf("tuple %q: %v", src, err))
			return
		}
		parsed = append(parsed, iw)
	}
	ids := make([]int64, 0, len(parsed))
	var delta wm.Delta
	for _, iw := range parsed {
		w := s.eng.AssertWME(iw.Class, iw.Attrs)
		ids = append(ids, w.ID)
		delta.Adds = append(delta.Adds, w)
	}
	s.srv.met.ingestWMEs.Add(int64(len(ids)))
	if err := s.logDurable(&delta); err != nil {
		t.c.sendErr(t.req, CodeInternal, fmt.Sprintf("storage: %v", err))
		return
	}
	t.c.send(&Response{Type: RespOK, ID: t.req.ID, Session: s.id, IDs: ids})
}

func (s *session) handleRetract(t task) {
	w, ok := s.eng.Store().Get(t.req.WMEID)
	if !ok {
		t.c.sendErr(t.req, CodeNotFound, fmt.Sprintf("no WME %d", t.req.WMEID))
		return
	}
	if err := s.eng.Retract(t.req.WMEID); err != nil {
		t.c.sendErr(t.req, CodeNotFound, err.Error())
		return
	}
	if err := s.logDurable(&wm.Delta{Removes: []*wm.WME{w}}); err != nil {
		t.c.sendErr(t.req, CodeInternal, fmt.Sprintf("storage: %v", err))
		return
	}
	t.c.send(&Response{Type: RespOK, ID: t.req.ID, Session: s.id, IDs: []int64{t.req.WMEID}})
}

// logDurable appends one non-firing working-memory record and makes
// it durable. No-op on ephemeral sessions or empty deltas.
func (s *session) logDurable(d *wm.Delta) error {
	if s.backend == nil || (len(d.Adds) == 0 && len(d.Removes) == 0) {
		return nil
	}
	if _, err := s.backend.Append(&storage.Record{Delta: d}); err != nil {
		return err
	}
	return s.backend.Sync()
}

// handleRun steps the recognize-act cycle up to Max firings (0 means
// runMaxDefault), streaming trace batches to the requesting connection
// every runFlushEvery commits and finishing with the run summary. A
// halt ends the run; the next run command fires again. A teardown
// mid-run aborts between steps; the firings already committed stay
// committed (and, durably, synced).
func (s *session) handleRun(t task) {
	max := t.req.Max
	if max <= 0 {
		max = runMaxDefault
	}
	res := &Response{Type: RespRun, ID: t.req.ID, Session: s.id}
	for res.Fired < max {
		if s.stopped() {
			s.flushTrace(t, true, false)
			t.c.sendErr(t.req, CodeClosed, "session "+s.id+" closed mid-run")
			return
		}
		name, err := s.eng.Step()
		if err != nil {
			s.flushTrace(t, true, false)
			t.c.sendErr(t.req, CodeInternal, fmt.Sprintf("step: %v", err))
			return
		}
		if name == "" {
			res.Quiescent = true
			break
		}
		res.Fired++
		if res.Halted = s.eng.Halted(); res.Halted {
			break
		}
		if res.Fired%runFlushEvery == 0 {
			s.flushTrace(t, true, false)
		}
	}
	s.flushTrace(t, true, false)
	t.c.send(res)
}

// flushTrace streams the log events appended since the last flush.
// Mid-run pushes set More and skip empty batches; a terminal flush
// (explicit trace request) always answers, even with zero events.
func (s *session) flushTrace(t task, more, always bool) {
	var out []TraceEvent
	s.eng.Log().Range(s.traceSeq, func(e trace.Event) bool {
		out = append(out, TraceEvent{Seq: e.Seq, Kind: e.Kind.String(), Rule: e.Rule,
			Inst: e.Inst, Detail: e.Detail, WMEs: e.WMEs})
		return true
	})
	s.traceSeq += len(out)
	if len(out) == 0 && !always {
		return
	}
	s.srv.met.commitsStreamed.Add(int64(len(out)))
	t.c.send(&Response{Type: RespTrace, ID: t.req.ID, Session: s.id, More: more, Events: out})
}

func (s *session) handleWMEs(t task) {
	all := s.eng.Store().All()
	out := make([]string, len(all))
	for i, w := range all {
		out[i] = w.String()
	}
	t.c.send(&Response{Type: RespWMEs, ID: t.req.ID, Session: s.id, WMEs: out})
}
