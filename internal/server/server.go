package server

import (
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"pdps/internal/engine"
	"pdps/internal/lang"
	"pdps/internal/obs"
	"pdps/internal/sched"
	"pdps/internal/storage"
)

// Config tunes a Server. The zero value is usable: default queue
// depth, shed-on-full backpressure, default session and frame limits,
// no durable storage, a fresh metrics registry and the wall clock.
type Config struct {
	// QueueDepth bounds each session's dispatch queue; values below 1
	// mean 64. When a tenant's queue is full, new work is shed with a
	// typed overloaded error (or blocks, per BlockOnFull) and
	// server_ingest_backpressure_total increments.
	QueueDepth int
	// BlockOnFull switches backpressure from shedding to blocking: a
	// full dispatch queue stalls the submitting connection's reader —
	// TCP backpressure — instead of returning overloaded.
	BlockOnFull bool
	// MaxSessions is the admission-control bound on concurrently live
	// sessions; values below 1 mean 1024. Creates beyond it are
	// rejected with overloaded.
	MaxSessions int
	// MaxFrame bounds frame payloads; values below 1 mean
	// DefaultMaxFrame.
	MaxFrame int
	// StorageRoot, when non-empty, enables durable sessions: a create
	// request's StorageDir is resolved under this root and opened as a
	// file storage backend. Empty disables durable sessions.
	StorageRoot string
	// Metrics is the server-level registry (the server_* series). Nil
	// means a fresh registry.
	Metrics *obs.Registry
	// Clock is handed to every session engine (Options.Clock); nil
	// means the wall clock. Tests inject sched.Immediate to collapse
	// engine timing.
	Clock sched.Clock
}

func (c Config) withDefaults() Config {
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.MaxSessions < 1 {
		c.MaxSessions = 1024
	}
	if c.MaxFrame < 1 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Clock == nil {
		c.Clock = sched.Real{}
	}
	return c
}

// serverMetrics are the server_* series of the obs registry.
type serverMetrics struct {
	sessionsActive  *obs.Gauge
	sessionsTotal   *obs.Counter
	sessionsReject  *obs.Counter
	connsActive     *obs.Gauge
	backpressure    *obs.Counter
	bytesIn         *obs.Counter
	bytesOut        *obs.Counter
	framesIn        *obs.Counter
	framesOut       *obs.Counter
	errors          func(code string) *obs.Counter
	requests        func(typ string) *obs.Counter
	ingestWMEs      *obs.Counter
	commitsStreamed *obs.Counter
}

func newServerMetrics(r *obs.Registry) serverMetrics {
	return serverMetrics{
		sessionsActive:  r.Gauge("server_sessions_active"),
		sessionsTotal:   r.Counter("server_sessions_total"),
		sessionsReject:  r.Counter("server_sessions_rejected_total"),
		connsActive:     r.Gauge("server_conns_active"),
		backpressure:    r.Counter("server_ingest_backpressure_total"),
		bytesIn:         r.Counter("server_bytes_in_total"),
		bytesOut:        r.Counter("server_bytes_out_total"),
		framesIn:        r.Counter("server_frames_in_total"),
		framesOut:       r.Counter("server_frames_out_total"),
		errors:          func(code string) *obs.Counter { return r.Counter("server_errors_total", obs.L("code", code)) },
		requests:        func(typ string) *obs.Counter { return r.Counter("server_requests_total", obs.L("type", typ)) },
		ingestWMEs:      r.Counter("server_ingest_wmes_total"),
		commitsStreamed: r.Counter("server_trace_events_streamed_total"),
	}
}

// Server hosts many concurrent engine sessions behind the wire
// protocol: one tenant per session, a bounded dispatch queue and a
// dedicated actor goroutine per session, and per-connection reader
// goroutines multiplexing any number of tenants. Close is graceful:
// it reaps every session (closing storage backends) and waits for all
// goroutines, so tests can assert zero leakage.
type Server struct {
	cfg Config
	met serverMetrics

	ln net.Listener
	wg sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	conns    map[*conn]struct{}
	sessions map[string]*session
	dirs     map[string]string // resolved storage dir -> session id
	nextSess atomic.Uint64

	// wrapBackend, when set before Listen, wraps each durable session's
	// file backend; the fault tests inject storage failures through it.
	wrapBackend func(storage.Backend) storage.Backend
}

// New builds a server; call Listen (or Serve) to start it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:      cfg,
		met:      newServerMetrics(cfg.Metrics),
		conns:    make(map[*conn]struct{}),
		sessions: make(map[string]*session),
		dirs:     make(map[string]string),
	}
}

// Metrics returns the server-level registry (the server_* series).
func (s *Server) Metrics() *obs.Registry { return s.cfg.Metrics }

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting in the
// background. It returns once the listener is bound.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.Serve(ln)
	return nil
}

// Serve adopts a bound listener and starts the accept loop in the
// background. The server takes ownership of the listener.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
}

// Addr returns the bound listen address, or nil before Listen.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// SessionCount returns the number of live sessions.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := &conn{srv: s, c: nc, owned: make(map[string]*session)}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.met.connsActive.Add(1)
		s.wg.Add(1)
		go c.readLoop()
	}
}

// Close stops accepting, severs every connection, tears down every
// session (closing storage backends) and waits for all server
// goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.c.Close()
	}
	for _, sess := range sessions {
		sess.teardown()
	}
	s.wg.Wait()
	return nil
}

// lookup finds a live session.
func (s *Server) lookup(id string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// unregister removes the session from the registry and releases its
// storage-dir reservation name (the open backend itself is closed by
// the actor; reserveDir stays held until releaseDir).
func (s *Server) unregister(sess *session) {
	s.mu.Lock()
	if _, ok := s.sessions[sess.id]; ok {
		delete(s.sessions, sess.id)
		s.met.sessionsActive.Add(-1)
	}
	s.mu.Unlock()
}

// releaseDir frees a storage directory for reuse once its backend is
// closed — called by the session actor at the end of teardown, so a
// re-create on the same directory never races the old backend.
func (s *Server) releaseDir(dir string, id string) {
	if dir == "" {
		return
	}
	s.mu.Lock()
	if s.dirs[dir] == id {
		delete(s.dirs, dir)
	}
	s.mu.Unlock()
}

// resolveStorageDir validates and reserves a per-tenant storage
// directory under the configured root.
func (s *Server) resolveStorageDir(req string, id string) (string, error) {
	if s.cfg.StorageRoot == "" {
		return "", &ProtocolError{Code: CodeBadRequest, Msg: "durable sessions disabled: no storage root"}
	}
	clean := filepath.Clean(req)
	if clean == "." || filepath.IsAbs(clean) || strings.HasPrefix(clean, "..") {
		return "", badReq("bad storage dir %q", req)
	}
	dir := filepath.Join(s.cfg.StorageRoot, clean)
	s.mu.Lock()
	defer s.mu.Unlock()
	if owner, busy := s.dirs[dir]; busy {
		return "", &ProtocolError{Code: CodeOverloaded, Msg: fmt.Sprintf("storage dir %q busy (session %s closing or live)", req, owner)}
	}
	s.dirs[dir] = id
	return dir, nil
}

// createSession builds, registers and starts a session from a create
// request. It runs on the connection reader goroutine.
func (s *Server) createSession(q *Request, c *conn) *Response {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errResp(q.ID, CodeClosed, "server closing")
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.met.sessionsReject.Inc()
		return errResp(q.ID, CodeOverloaded, fmt.Sprintf("session table full (%d)", s.cfg.MaxSessions))
	}
	s.mu.Unlock()

	prog, err := lang.Parse(q.Program)
	if err != nil {
		return errResp(q.ID, CodeBadRequest, fmt.Sprintf("program: %v", err))
	}
	strategy := q.Options.Strategy
	if strategy == "" {
		strategy = "lex"
	}
	// Refuse a bad strategy before opening storage: OpenDurable seeds
	// the directory, which a refused create must leave untouched.
	st, err := newStrategy(strategy)
	if err != nil {
		return errResp(q.ID, CodeBadRequest, err.Error())
	}
	opts := engine.Options{
		Strategy: st,
		Clock:    s.cfg.Clock,
	}

	id := fmt.Sprintf("s%06d", s.nextSess.Add(1))
	sess := &session{
		id:    id,
		srv:   s,
		owner: c,
		queue: make(chan task, s.cfg.QueueDepth),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}

	var recovered int
	var lsn storage.LSN
	if q.Options.StorageDir != "" {
		dir, err := s.resolveStorageDir(q.Options.StorageDir, id)
		if err != nil {
			return errFromProto(q.ID, err)
		}
		backend, restore, rec, err := engine.OpenDurable(dir, &prog)
		if err != nil {
			s.releaseDir(dir, id)
			return errResp(q.ID, CodeInternal, fmt.Sprintf("storage: %v", err))
		}
		sess.backend, sess.dir = backend, dir
		if s.wrapBackend != nil {
			sess.backend = s.wrapBackend(backend)
		}
		opts.Storage = sess.backend
		opts.Restore = restore
		recovered, lsn = len(rec.Records), rec.LSN
	}

	eng, err := engine.NewSession(prog, opts)
	if err != nil {
		if sess.backend != nil {
			sess.backend.Close()
			s.releaseDir(sess.dir, id)
		}
		return errResp(q.ID, CodeBadRequest, err.Error())
	}
	sess.eng = eng

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		if sess.backend != nil {
			sess.backend.Close()
			s.releaseDir(sess.dir, id)
		}
		return errResp(q.ID, CodeClosed, "server closing")
	}
	s.sessions[id] = sess
	s.mu.Unlock()
	s.met.sessionsActive.Add(1)
	s.met.sessionsTotal.Inc()
	c.adopt(sess)
	s.wg.Add(1)
	go sess.loop()
	return &Response{Type: RespCreated, ID: q.ID, Session: id, Recovered: recovered, LSN: uint64(lsn)}
}

func errResp(id uint64, code, msg string) *Response {
	return &Response{Type: RespError, ID: id, Code: code, Error: msg}
}

func errFromProto(id uint64, err error) *Response {
	if pe, ok := err.(*ProtocolError); ok {
		return errResp(id, pe.Code, pe.Msg)
	}
	return errResp(id, CodeInternal, err.Error())
}
