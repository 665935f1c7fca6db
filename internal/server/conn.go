package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"

	"pdps/internal/cr"
)

// newStrategy maps a wire strategy name onto a conflict-resolution
// strategy; empty means the engine default (LEX).
func newStrategy(name string) (cr.Strategy, error) {
	if name == "" {
		return nil, nil
	}
	st, err := cr.New(name)
	if err != nil {
		return nil, badReq("strategy: %v", err)
	}
	return st, nil
}

// conn is one client connection: a reader goroutine decoding frames
// and dispatching them, and a mutex-serialised writer shared by the
// reader and the session actors streaming responses back. Sessions
// created on a connection are owned by it until they are torn down:
// when the connection dies — clean close, abrupt kill, half-written
// frame — the reader's cleanup tears every owned session down, so an
// abandoned tenant never leaks an actor goroutine or a storage backend.
type conn struct {
	srv *Server
	c   net.Conn

	wmu  sync.Mutex
	dead bool // guarded by wmu; set on first write error

	mu    sync.Mutex
	owned map[string]*session
}

// adopt records a session as owned by this connection, unless it was
// already torn down: teardown stops the session before it disowns it,
// so a teardown racing the create can never leave a stale entry.
func (c *conn) adopt(sess *session) {
	c.mu.Lock()
	if !sess.stopped() {
		c.owned[sess.id] = sess
	}
	c.mu.Unlock()
}

// disown forgets a torn-down session, so a long-lived connection does
// not keep every session it ever closed reachable.
func (c *conn) disown(sess *session) {
	c.mu.Lock()
	delete(c.owned, sess.id)
	c.mu.Unlock()
}

// send writes one response frame; errors mark the connection dead and
// are otherwise swallowed (the reader will observe the close).
func (c *conn) send(p *Response) {
	payload, err := EncodeResponse(p)
	if err != nil {
		return
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.dead {
		return
	}
	if err := WriteFrame(c.c, payload); err != nil {
		c.dead = true
		return
	}
	c.srv.met.framesOut.Inc()
	c.srv.met.bytesOut.Add(int64(frameHeaderLen + len(payload)))
}

func (c *conn) readLoop() {
	defer c.srv.wg.Done()
	defer c.cleanup()
	br := bufio.NewReader(c.c)
	for {
		payload, err := ReadFrame(br, c.srv.cfg.MaxFrame)
		if err != nil {
			// EOF is a clean close; a short or oversized frame is a
			// poisoned stream — either way the connection is done and
			// cleanup reaps the owned sessions.
			if !errors.Is(err, io.EOF) {
				c.srv.met.errors(CodeBadRequest).Inc()
			}
			return
		}
		c.srv.met.framesIn.Inc()
		c.srv.met.bytesIn.Add(int64(frameHeaderLen + len(payload)))
		req, err := DecodeRequest(payload)
		if err != nil {
			c.srv.met.errors(CodeBadRequest).Inc()
			if req == nil {
				// Unparseable JSON: no request ID to echo; the framing
				// may still be sound, so answer ID 0 and keep reading.
				c.send(errResp(0, CodeBadRequest, err.Error()))
				continue
			}
			c.send(errFromProto(req.ID, err))
			continue
		}
		c.dispatch(req)
	}
}

// dispatch routes one request: registry operations and metrics are
// handled inline on the reader (they touch only concurrency-safe
// state), everything that mutates a session's engine goes through the
// session's bounded dispatch queue.
func (c *conn) dispatch(q *Request) {
	c.srv.met.requests(q.Type).Inc()
	switch q.Type {
	case ReqPing:
		c.send(&Response{Type: RespPong, ID: q.ID})
	case ReqCreate:
		c.send(c.srv.createSession(q, c))
	case ReqAttach:
		if c.srv.lookup(q.Session) == nil {
			c.sendErr(q, CodeNotFound, "no session "+q.Session)
			return
		}
		c.send(&Response{Type: RespOK, ID: q.ID, Session: q.Session})
	case ReqMetrics:
		c.handleMetrics(q)
	case ReqClose:
		sess := c.srv.lookup(q.Session)
		if sess == nil {
			c.sendErr(q, CodeNotFound, "no session "+q.Session)
			return
		}
		// Tear down and acknowledge only after the actor has fully
		// exited (engine stopped, backend closed, storage dir freed),
		// so a client's close→re-create on the same durable directory
		// never races the old backend.
		c.srv.wg.Add(1)
		go func() {
			defer c.srv.wg.Done()
			sess.teardown()
			<-sess.done
			c.send(&Response{Type: RespOK, ID: q.ID, Session: q.Session})
		}()
	case ReqAssert, ReqRetract, ReqRun, ReqTrace, ReqWMEs:
		sess := c.srv.lookup(q.Session)
		if sess == nil {
			c.sendErr(q, CodeNotFound, "no session "+q.Session)
			return
		}
		c.submit(sess, task{req: q, c: c})
	default:
		c.sendErr(q, CodeBadRequest, "unknown request type "+q.Type)
	}
}

// submit enqueues a task on the session's bounded dispatch queue,
// applying the configured backpressure policy when it is full: shed
// with a typed overloaded error, or block this connection's reader
// (TCP backpressure) until the actor drains a slot or the session
// stops. Every full-queue encounter increments
// server_ingest_backpressure_total exactly once.
func (c *conn) submit(sess *session, t task) {
	switch sess.trySubmit(t) {
	case submitOK:
		return
	case submitClosed:
		c.sendErr(t.req, CodeClosed, "session "+sess.id+" closed")
		return
	}
	// Queue full.
	c.srv.met.backpressure.Inc()
	if !c.srv.cfg.BlockOnFull {
		c.srv.met.errors(CodeOverloaded).Inc()
		c.sendErr(t.req, CodeOverloaded, "session "+sess.id+" dispatch queue full")
		return
	}
	if sess.blockSubmit(t) != submitOK {
		c.sendErr(t.req, CodeClosed, "session "+sess.id+" closed")
	}
}

func (c *conn) handleMetrics(q *Request) {
	reg := c.srv.cfg.Metrics
	if q.Session != "" {
		sess := c.srv.lookup(q.Session)
		if sess == nil {
			c.sendErr(q, CodeNotFound, "no session "+q.Session)
			return
		}
		reg = sess.eng.Metrics()
	}
	buf, err := reg.Snapshot().MarshalIndent()
	if err != nil {
		c.sendErr(q, CodeInternal, err.Error())
		return
	}
	c.send(&Response{Type: RespMetrics, ID: q.ID, Session: q.Session, Metrics: buf})
}

func (c *conn) sendErr(q *Request, code, msg string) {
	c.srv.met.errors(code).Inc()
	c.send(errResp(q.ID, code, msg))
}

// cleanup runs when the reader exits for any reason: it closes the
// socket, unregisters the connection and reaps every owned session.
func (c *conn) cleanup() {
	c.c.Close()
	c.mu.Lock()
	owned := make([]*session, 0, len(c.owned))
	for _, s := range c.owned {
		owned = append(owned, s)
	}
	c.owned = make(map[string]*session)
	c.mu.Unlock()
	for _, s := range owned {
		s.teardown()
	}
	c.srv.mu.Lock()
	delete(c.srv.conns, c)
	c.srv.mu.Unlock()
	c.srv.met.connsActive.Add(-1)
}
