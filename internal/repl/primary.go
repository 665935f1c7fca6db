package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"pdps/internal/detsched"
	"pdps/internal/engine"
	"pdps/internal/lang"
	"pdps/internal/obs"
	"pdps/internal/sched"
	"pdps/internal/server"
	"pdps/internal/storage"
	"pdps/internal/wm"
)

// PrimaryOptions configures a replication primary.
type PrimaryOptions struct {
	// Program is the rule-language source of the run. It is shipped
	// verbatim to replay followers, which re-parse it, so both sides
	// assign identical initial WME IDs.
	Program string
	// Config is the run configuration, shipped alongside the program.
	Config RunConfig
	// CheckpointEvery is the record cadence of shadow-store checkpoints
	// for apply-mode bootstrap; 0 means 256, negative disables (entry 0,
	// the initial working memory, always exists).
	CheckpointEvery int
	// Storage is the primary's own durable backend; nil means an
	// in-memory backend. The replication tee wraps it either way.
	Storage storage.Backend
	// Metrics receives the primary's repl_* series; nil means a fresh
	// registry. Never pass the engine's registry: it must stay
	// byte-identical across primary and followers.
	Metrics *obs.Registry
}

// Primary owns one deterministic engine run and serves its replication
// stream. Lifecycle: NewPrimary → Listen → Run (blocking) → Close.
// Followers may connect at any point before Close, including after the
// run finished — the full log is retained in memory.
type Primary struct {
	opts    PrimaryOptions
	prog    engine.Program
	dcfg    detsched.Config
	cfgJSON []byte
	met     *primaryMetrics
	reg     *obs.Registry
	log     *replLog

	ln net.Listener
	wg sync.WaitGroup

	mu      sync.Mutex
	conns   map[net.Conn]*followerConn
	drained int // followers that acked the final head LSN
	closed  bool
	started bool
	outcome *detsched.RunOutcome
}

// followerConn is the primary's view of one subscribed follower.
type followerConn struct {
	conn     net.Conn
	wmu      sync.Mutex // serialises frame writes (hello vs. streamer)
	acked    uint64
	finAcked bool // acked the head LSN after fin was published
}

// NewPrimary parses the program and configuration and builds the
// replication log with its initial-working-memory checkpoint.
func NewPrimary(opts PrimaryOptions) (*Primary, error) {
	prog, err := lang.Parse(opts.Program)
	if err != nil {
		return nil, fmt.Errorf("repl: parse program: %w", err)
	}
	dcfg, err := opts.Config.detConfig()
	if err != nil {
		return nil, err
	}
	cfgJSON, err := json.Marshal(opts.Config)
	if err != nil {
		return nil, err
	}
	initial := wm.NewStore()
	for _, iw := range prog.WMEs {
		initial.Insert(iw.Class, iw.Attrs)
	}
	every := opts.CheckpointEvery
	if every == 0 {
		every = 256
	} else if every < 0 {
		every = 0
	}
	l, err := newReplLog(initial, every)
	if err != nil {
		return nil, err
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Primary{
		opts:    opts,
		prog:    prog,
		dcfg:    dcfg,
		cfgJSON: cfgJSON,
		met:     newPrimaryMetrics(reg),
		reg:     reg,
		log:     l,
		conns:   make(map[net.Conn]*followerConn),
	}, nil
}

// Listen starts accepting follower connections on addr.
func (p *Primary) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.ln = ln
	p.mu.Unlock()
	p.wg.Add(1)
	go p.acceptLoop(ln)
	return nil
}

// Addr returns the listener address (for 127.0.0.1:0 loopback setups).
func (p *Primary) Addr() net.Addr {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ln == nil {
		return nil
	}
	return p.ln.Addr()
}

// Metrics returns the registry carrying the primary's repl_* series.
func (p *Primary) Metrics() *obs.Registry { return p.reg }

// HeadLSN returns the number of records logged so far.
func (p *Primary) HeadLSN() uint64 { return p.log.head() }

// Run executes the program once under a seeded random-walk schedule,
// streaming every decision and commit record as it happens, and
// publishes the fin terminator when done. It blocks until the run
// completes and may be called once.
func (p *Primary) Run() (detsched.RunOutcome, error) {
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		return detsched.RunOutcome{}, errors.New("repl: primary run already started")
	}
	p.started = true
	p.mu.Unlock()

	ctl := sched.NewDet(sched.NewRandom(p.opts.Config.Seed))
	ctl.OnChoice = p.log.appendChoice
	inner := p.opts.Storage
	if inner == nil {
		inner = storage.NewMem()
	}
	cfg := p.dcfg
	cfg.Storage = &teeBackend{inner: inner, log: p.log}

	out := detsched.RunUnder(p.prog, cfg, ctl)

	f := &fin{
		fired:     out.Result.Firings,
		halted:    out.Result.Halted,
		quiescent: quiescentOf(out.Result),
	}
	p.log.mu.Lock()
	f.nChoices = len(p.log.choices)
	f.nRecords = uint64(len(p.log.records))
	hash, herr := storeHash(p.log.shadow)
	p.log.mu.Unlock()
	f.storeHash = hash
	mb, merr := out.Metrics.MarshalIndent()
	if merr == nil {
		mb, merr = canonMetrics(mb)
	}
	f.metrics = mb
	var runErr error
	switch {
	case out.SchedErr != nil:
		runErr = out.SchedErr
	case out.Err != nil:
		runErr = out.Err
	case herr != nil:
		runErr = herr
	case merr != nil:
		runErr = merr
	}
	if runErr != nil {
		f.errMsg = runErr.Error()
	}
	p.log.finish(f)

	p.mu.Lock()
	p.outcome = &out
	p.mu.Unlock()
	return out, runErr
}

// WaitDrained blocks until every currently connected follower has
// acked the head LSN, or the timeout expires. It reports whether the
// stream drained.
func (p *Primary) WaitDrained(timeout time.Duration) bool {
	return waitUntil(timeout, func() bool {
		head := p.log.head()
		p.mu.Lock()
		defer p.mu.Unlock()
		for _, fc := range p.conns {
			if fc.acked < head {
				return false
			}
		}
		return true
	})
}

// WaitFollowersDrained blocks until at least n followers (cumulative,
// over the primary's lifetime) have acked the final head LSN, or the
// timeout expires. Unlike WaitDrained it does not require them to be
// connected simultaneously, so a serve-then-exit fleet counts.
func (p *Primary) WaitFollowersDrained(n int, timeout time.Duration) bool {
	return waitUntil(timeout, func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.drained >= n
	})
}

// Close stops the listener, wakes and disconnects every follower, and
// waits for all primary goroutines to exit.
func (p *Primary) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	ln := p.ln
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	p.log.close()
	for _, c := range conns {
		c.Close()
	}
	p.wg.Wait()
	return nil
}

func (p *Primary) acceptLoop(ln net.Listener) {
	defer p.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go p.serveConn(c)
	}
}

// serveConn runs the per-follower reader: it handles the hello
// handshake, spawns the streamer, and folds acks until the connection
// drops.
func (p *Primary) serveConn(c net.Conn) {
	defer p.wg.Done()
	defer c.Close()
	fc := &followerConn{conn: c}
	registered := false
	defer func() {
		if registered {
			p.mu.Lock()
			delete(p.conns, c)
			p.mu.Unlock()
			p.met.followers.Add(-1)
			p.updateLag()
		}
	}()
	for {
		payload, err := server.ReadFrame(c, 0)
		if err != nil {
			return
		}
		q, err := server.DecodeRequest(payload)
		if err != nil {
			p.sendErr(fc, q, err)
			return
		}
		switch q.Type {
		case server.ReqReplHello:
			if registered {
				p.sendErr(fc, q, &server.ProtocolError{Code: server.CodeBadRequest,
					Msg: "repl_hello: already subscribed"})
				return
			}
			if !p.handleHello(fc, q) {
				return
			}
			p.mu.Lock()
			if p.closed {
				p.mu.Unlock()
				return
			}
			p.conns[c] = fc
			p.mu.Unlock()
			registered = true
			p.met.followers.Add(1)
		case server.ReqReplAck:
			head := p.log.head()
			done := p.log.finSnapshot() != nil
			p.mu.Lock()
			if q.AckLSN > fc.acked {
				fc.acked = q.AckLSN
			}
			if done && !fc.finAcked && fc.acked >= head {
				fc.finAcked = true
				p.drained++
			}
			p.mu.Unlock()
			p.updateLag()
		default:
			p.sendErr(fc, q, &server.ProtocolError{Code: server.CodeBadRequest,
				Msg: "primary speaks repl_hello/repl_ack only, got " + q.Type})
			return
		}
	}
}

// handleHello answers the handshake and spawns the streamer. It
// reports whether the subscription is live.
func (p *Primary) handleHello(fc *followerConn, q *server.Request) bool {
	mode := q.ReplMode
	if mode == "" {
		mode = server.ReplModeReplay
	}
	resp := &server.Response{
		Type:       server.RespReplHello,
		ID:         q.ID,
		ReplMode:   mode,
		Program:    p.opts.Program,
		ReplConfig: p.cfgJSON,
	}
	startChoice := q.FromChoice
	startLSN := q.FromLSN
	if mode == server.ReplModeApply && q.FromLSN == 0 {
		cp := p.log.latestCheckpoint()
		resp.Snapshot = cp.snap
		resp.SnapshotLSN = cp.lsn
		startLSN = cp.lsn
		p.met.snapshotsShipped.Inc()
	}
	if err := p.writeResp(fc, resp); err != nil {
		return false
	}
	p.wg.Add(1)
	go p.stream(fc, q.ID, mode, startChoice, startLSN)
	return true
}

// stream ships choices and records past the follower's position until
// fin or teardown. Apply-mode followers get records only.
func (p *Primary) stream(fc *followerConn, id uint64, mode string, nextChoice int, nextLSN uint64) {
	defer p.wg.Done()
	for {
		nw := p.log.waitNews(nextChoice, nextLSN)
		if nw.closed {
			return
		}
		if len(nw.choices) > 0 {
			if mode == server.ReplModeReplay {
				wc := make([]server.ReplChoice, len(nw.choices))
				for i, c := range nw.choices {
					wc[i] = server.ReplChoice{N: c.N, P: c.Picked}
				}
				if err := p.writeResp(fc, &server.Response{
					Type: server.RespReplChoices, ID: id,
					ChoiceSeq: nextChoice, Choices: wc,
				}); err != nil {
					return
				}
				p.met.choicesShipped.Add(int64(len(nw.choices)))
			}
			nextChoice += len(nw.choices)
		}
		if len(nw.records) > 0 {
			if err := p.writeResp(fc, &server.Response{
				Type: server.RespReplRecords, ID: id,
				RecLSN: nextLSN + 1, Records: nw.records,
			}); err != nil {
				return
			}
			p.met.recordsShipped.Add(int64(len(nw.records)))
			nextLSN += uint64(len(nw.records))
			p.updateLag()
		}
		if nw.fin != nil {
			p.writeResp(fc, &server.Response{
				Type: server.RespReplFin, ID: id,
				NChoices:  nw.fin.nChoices,
				NRecords:  nw.fin.nRecords,
				Fired:     nw.fin.fired,
				Halted:    nw.fin.halted,
				Quiescent: nw.fin.quiescent,
				StoreHash: nw.fin.storeHash,
				Metrics:   nw.fin.metrics,
				Error:     nw.fin.errMsg,
			})
			return
		}
	}
}

// updateLag recomputes repl_lag_records: head minus the slowest
// connected follower's ack (0 with no followers).
func (p *Primary) updateLag() {
	head := p.log.head()
	p.mu.Lock()
	minAcked := head
	for _, fc := range p.conns {
		if fc.acked < minAcked {
			minAcked = fc.acked
		}
	}
	p.mu.Unlock()
	p.met.lag.Set(int64(head - minAcked))
}

func (p *Primary) writeResp(fc *followerConn, r *server.Response) error {
	b, err := server.EncodeResponse(r)
	if err != nil {
		return err
	}
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	return server.WriteFrame(fc.conn, b)
}

func (p *Primary) sendErr(fc *followerConn, q *server.Request, err error) {
	resp := &server.Response{Type: server.RespError, Code: server.CodeBadRequest, Error: err.Error()}
	if q != nil {
		resp.ID = q.ID
	}
	pe := &server.ProtocolError{}
	if errors.As(err, &pe) {
		resp.Code = pe.Code
		resp.Error = pe.Msg
	}
	p.writeResp(fc, resp)
}
