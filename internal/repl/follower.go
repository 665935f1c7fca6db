package repl

import (
	"bytes"
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
	"pdps/internal/trace"
	"pdps/internal/wm"
)

// ErrFollowerClosed reports a follower torn down by Close before its
// stream finished.
var ErrFollowerClosed = errors.New("repl: follower closed")

// ErrDiverged wraps every divergence verdict so callers can branch on
// it with errors.Is.
var ErrDiverged = errors.New("repl: replica diverged from primary")

// FollowerOptions configures a replica.
type FollowerOptions struct {
	// ID labels this follower's metric series (follower="id"); "" emits
	// unlabeled series. Give each follower sharing a registry an ID.
	ID string
	// Mode is server.ReplModeReplay (default) or server.ReplModeApply.
	Mode string
	// AckEvery is the applied-record cadence of LSN acks; 0 means 32.
	AckEvery int
	// Metrics receives the follower's repl_* series; nil means a fresh
	// registry. Never the engine's registry (see PrimaryOptions).
	Metrics *obs.Registry
}

// Report is a finished follower's summary.
type Report struct {
	// Mode is the granted replication mode.
	Mode string
	// Records and Choices are the applied totals.
	Records uint64
	Choices int
	// Fired/Halted/Quiescent echo the verified run summary.
	Fired     int
	Halted    bool
	Quiescent bool
	// StoreHash is the replica store's hash, equal to the primary's.
	StoreHash string
	// TraceChecked reports that the commit trace passed the
	// admissibility oracle (CheckTrace in replay mode, CheckTraceFrom
	// over the bootstrap base in apply mode).
	TraceChecked bool
	// MetricsJSON is the replica's engine metrics snapshot (replay
	// mode), byte-identical to the primary's.
	MetricsJSON []byte
	// Outcome is the replica's own run outcome (replay mode only).
	Outcome *detsched.RunOutcome
}

// Follower is one replica. Lifecycle: NewFollower → Connect →
// (Disconnect/Connect as needed) → Wait → Close. A replay follower
// re-executes the primary's run from the streamed schedule; an apply
// follower folds shipped records over a bootstrap snapshot. On any
// divergence the follower halts: the engine is aborted, the divergence
// counter fires, and View refuses further reads.
type Follower struct {
	opts FollowerOptions
	met  *followerMetrics
	reg  *obs.Registry

	mu     sync.Mutex
	conn   net.Conn
	wmu    sync.Mutex // serialises ack writes
	closed bool

	// Shipped state (set at first hello).
	program string
	prog    engine.Program
	dcfg    detsched.Config

	// Replay-mode engine.
	started      bool
	stream       *sched.Stream
	ctl          *sched.Det
	engineExited chan struct{}
	out          *detsched.RunOutcome
	mutateChoice func(seq int, c sched.Choice) sched.Choice // test hook: inject divergence

	// Replica state.
	shadow       *wm.Store
	base         *wm.Store // apply mode: bootstrap clone for CheckTraceFrom
	commits      []trace.Event
	appliedLSN   uint64
	shippedHigh  uint64
	fedChoices   int
	lastAck      uint64
	ownAhead     map[uint64][]byte
	shippedAhead map[uint64][]byte

	fin      *fin
	finished bool
	report   *Report
	err      error
	done     chan struct{}
	doneOnce sync.Once
}

// NewFollower builds an unconnected replica.
func NewFollower(opts FollowerOptions) *Follower {
	if opts.Mode == "" {
		opts.Mode = server.ReplModeReplay
	}
	if opts.AckEvery == 0 {
		opts.AckEvery = 32
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Follower{
		opts:         opts,
		met:          newFollowerMetrics(reg, opts.ID),
		reg:          reg,
		ownAhead:     make(map[uint64][]byte),
		shippedAhead: make(map[uint64][]byte),
		done:         make(chan struct{}),
	}
}

// Metrics returns the registry carrying the follower's repl_* series.
func (f *Follower) Metrics() *obs.Registry { return f.reg }

// Connect dials the primary, performs the repl_hello handshake (with
// resume positions when reconnecting), and starts the reader. The
// first replay-mode connect also starts the replica engine.
func (f *Follower) Connect(addr string) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrFollowerClosed
	}
	if f.conn != nil {
		f.mu.Unlock()
		return errors.New("repl: follower already connected")
	}
	fromChoice := f.fedChoices
	fromLSN := f.shippedHigh
	if f.opts.Mode == server.ReplModeApply {
		fromLSN = f.appliedLSN
	}
	f.mu.Unlock()

	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	hello := &server.Request{
		Type:       server.ReqReplHello,
		ID:         1,
		ReplMode:   f.opts.Mode,
		FromChoice: fromChoice,
		FromLSN:    fromLSN,
	}
	hb, err := server.EncodeRequest(hello)
	if err == nil {
		err = server.WriteFrame(c, hb)
	}
	var resp *server.Response
	if err == nil {
		var payload []byte
		if payload, err = server.ReadFrame(c, 0); err == nil {
			resp, err = server.DecodeResponse(payload)
		}
	}
	if err == nil && resp.Type == server.RespError {
		err = fmt.Errorf("repl: hello rejected: %s: %s", resp.Code, resp.Error)
	}
	if err == nil && resp.Type != server.RespReplHello {
		err = fmt.Errorf("repl: unexpected hello response %q", resp.Type)
	}
	if err != nil {
		c.Close()
		return err
	}
	if err := f.adopt(resp); err != nil {
		c.Close()
		return err
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		c.Close()
		return ErrFollowerClosed
	}
	f.conn = c
	startEngine := f.opts.Mode == server.ReplModeReplay && !f.started
	if startEngine {
		f.started = true
		f.stream = sched.NewStream()
		f.ctl = sched.NewDet(f.stream)
		f.engineExited = make(chan struct{})
	}
	f.mu.Unlock()
	if startEngine {
		go f.runEngine()
	}
	go f.readLoop(c)
	return nil
}

// adopt installs the hello payload: program and config on first
// contact, plus the bootstrap snapshot in apply mode.
func (f *Follower) adopt(resp *server.Response) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.program == "" {
		var cfg RunConfig
		if len(resp.ReplConfig) > 0 {
			// Refuse fields this build does not know: a primary that
			// ships a setting the replica would silently drop could only
			// surface as a later divergence.
			dec := json.NewDecoder(bytes.NewReader(resp.ReplConfig))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&cfg); err != nil {
				return fmt.Errorf("repl: hello config: %w", err)
			}
			if dec.More() {
				return errors.New("repl: hello config: trailing data")
			}
		}
		dcfg, err := cfg.detConfig()
		if err != nil {
			return err
		}
		prog, err := lang.Parse(resp.Program)
		if err != nil {
			return fmt.Errorf("repl: hello program: %w", err)
		}
		f.program = resp.Program
		f.prog = prog
		f.dcfg = dcfg
		switch f.opts.Mode {
		case server.ReplModeApply:
			if resp.Snapshot == nil {
				return errors.New("repl: apply hello carried no snapshot")
			}
			st, err := wm.ReadSnapshot(bytes.NewReader(resp.Snapshot))
			if err != nil {
				return fmt.Errorf("repl: bootstrap snapshot: %w", err)
			}
			f.base = st
			f.shadow = st.Clone()
			f.appliedLSN = resp.SnapshotLSN
			f.shippedHigh = resp.SnapshotLSN
			f.lastAck = resp.SnapshotLSN
			f.met.snapshotsLoaded.Inc()
		default:
			// Replay replicas rebuild the initial store exactly as the
			// primary's shadow did: program WMEs inserted in order.
			st := wm.NewStore()
			for _, iw := range prog.WMEs {
				st.Insert(iw.Class, iw.Attrs)
			}
			f.shadow = st
		}
	}
	return nil
}

// runEngine executes the replica run under the network-fed schedule.
func (f *Follower) runEngine() {
	defer close(f.engineExited)
	f.mu.Lock()
	prog, cfg, ctl := f.prog, f.dcfg, f.ctl
	f.mu.Unlock()
	cfg.Storage = &captureBackend{f: f, inner: storage.NewMem()}
	out := detsched.RunUnder(prog, cfg, ctl)
	f.mu.Lock()
	f.out = &out
	f.mu.Unlock()
	f.tryFinish()
}

// captureBackend hands every record the replica engine commits to the
// byte-comparison pipeline. The inner Mem backend only assigns LSNs.
type captureBackend struct {
	f     *Follower
	inner storage.Backend
}

func (b *captureBackend) Append(r *storage.Record) (storage.LSN, error) {
	lsn, err := b.inner.Append(r)
	if err == nil {
		b.f.onOwnRecord(uint64(lsn), storage.EncodeRecord(nil, r))
	}
	return lsn, err
}

func (b *captureBackend) Sync() error                         { return b.inner.Sync() }
func (b *captureBackend) Checkpoint(s *wm.Store) error        { return b.inner.Checkpoint(s) }
func (b *captureBackend) Recover() (*storage.Recovery, error) { return b.inner.Recover() }
func (b *captureBackend) Close() error                        { return b.inner.Close() }

// readLoop consumes stream frames until the connection drops.
func (f *Follower) readLoop(c net.Conn) {
	for {
		payload, err := server.ReadFrame(c, 0)
		if err != nil {
			f.mu.Lock()
			if f.conn == c {
				f.conn = nil
			}
			f.mu.Unlock()
			return
		}
		resp, err := server.DecodeResponse(payload)
		if err != nil {
			f.failf("repl: bad frame from primary: %v", err)
			return
		}
		switch resp.Type {
		case server.RespReplChoices:
			f.onChoices(resp)
		case server.RespReplRecords:
			f.onRecords(resp)
		case server.RespReplFin:
			f.onFin(resp)
		case server.RespError:
			f.failf("repl: primary error: %s: %s", resp.Code, resp.Error)
			return
		}
	}
}

// onChoices feeds a shipped decision batch into the replica scheduler.
func (f *Follower) onChoices(resp *server.Response) {
	f.mu.Lock()
	if f.err != nil || f.opts.Mode != server.ReplModeReplay {
		f.mu.Unlock()
		return
	}
	seq := resp.ChoiceSeq
	wire := resp.Choices
	if seq > f.fedChoices {
		f.mu.Unlock()
		f.failf("repl: choice gap: got seq %d, expected %d", seq, f.fedChoices)
		return
	}
	if skip := f.fedChoices - seq; skip > 0 {
		if skip >= len(wire) {
			f.mu.Unlock()
			return
		}
		wire = wire[skip:]
	}
	chs := make([]sched.Choice, len(wire))
	for i, wc := range wire {
		ch := sched.Choice{N: wc.N, Picked: wc.P}
		if f.mutateChoice != nil {
			ch = f.mutateChoice(f.fedChoices+i, ch)
		}
		chs[i] = ch
	}
	f.fedChoices += len(chs)
	stream := f.stream
	f.mu.Unlock()
	f.met.choicesApplied.Add(int64(len(chs)))
	stream.Feed(chs)
}

// onRecords routes a shipped record batch.
func (f *Follower) onRecords(resp *server.Response) {
	ackDue := uint64(0)
	f.mu.Lock()
	for i, rb := range resp.Records {
		if f.err != nil {
			break
		}
		lsn := resp.RecLSN + uint64(i)
		if lsn <= f.shippedHigh {
			continue // resume overlap
		}
		if lsn != f.shippedHigh+1 {
			f.divergeLocked(fmt.Errorf("repl: record gap: got LSN %d after %d", lsn, f.shippedHigh))
			break
		}
		f.shippedHigh = lsn
		if f.opts.Mode == server.ReplModeApply {
			f.applyRecordLocked(lsn, rb)
		} else if own, ok := f.ownAhead[lsn]; ok {
			delete(f.ownAhead, lsn)
			if !bytes.Equal(own, rb) {
				f.divergeLocked(fmt.Errorf("repl: record %d differs from primary (%d vs %d bytes)",
					lsn, len(own), len(rb)))
			} else {
				f.applyRecordLocked(lsn, rb)
			}
		} else {
			f.shippedAhead[lsn] = append([]byte(nil), rb...)
		}
	}
	f.met.lag.Set(int64(f.shippedHigh - f.appliedLSN))
	ackDue = f.ackDueLocked()
	f.mu.Unlock()
	if ackDue > 0 {
		f.sendAck(ackDue)
	}
}

// onOwnRecord receives a record the replica engine just committed. It
// runs on a controlled engine task and must not block on the network.
func (f *Follower) onOwnRecord(lsn uint64, enc []byte) {
	ackDue := uint64(0)
	f.mu.Lock()
	if f.err == nil {
		if shipped, ok := f.shippedAhead[lsn]; ok {
			delete(f.shippedAhead, lsn)
			if !bytes.Equal(enc, shipped) {
				f.divergeLocked(fmt.Errorf("repl: record %d differs from primary (%d vs %d bytes)",
					lsn, len(enc), len(shipped)))
			} else {
				f.applyRecordLocked(lsn, enc)
				ackDue = f.ackDueLocked()
			}
		} else {
			f.ownAhead[lsn] = enc
		}
	}
	f.mu.Unlock()
	if ackDue > 0 {
		f.sendAck(ackDue)
	}
}

// applyRecordLocked folds a verified (or apply-mode) record into the
// replica store and collects its commit event.
func (f *Follower) applyRecordLocked(lsn uint64, rb []byte) {
	if lsn != f.appliedLSN+1 {
		f.divergeLocked(fmt.Errorf("repl: apply out of order: record %d after %d", lsn, f.appliedLSN))
		return
	}
	rec, err := storage.DecodeRecord(rb)
	if err == nil {
		err = f.shadow.ApplyLogged(rec.Delta)
	}
	if err != nil {
		f.divergeLocked(fmt.Errorf("repl: apply record %d: %w", lsn, err))
		return
	}
	f.appliedLSN = lsn
	if rec.Rule != "" {
		f.commits = append(f.commits, trace.Event{
			Kind: trace.KindCommit, Rule: rec.Rule, Inst: rec.Inst, WMEs: rec.WMEs,
		})
	}
	f.met.recordsApplied.Inc()
	f.met.lag.Set(int64(f.shippedHigh - f.appliedLSN))
}

// ackDueLocked returns the LSN to ack now, or 0.
func (f *Follower) ackDueLocked() uint64 {
	if f.appliedLSN-f.lastAck >= uint64(f.opts.AckEvery) {
		f.lastAck = f.appliedLSN
		return f.appliedLSN
	}
	return 0
}

// sendAck reports applied progress; errors are ignored (the primary
// treats a silent follower as laggy, and resume re-syncs positions).
func (f *Follower) sendAck(lsn uint64) {
	f.mu.Lock()
	c := f.conn
	f.mu.Unlock()
	if c == nil {
		return
	}
	b, err := server.EncodeRequest(&server.Request{Type: server.ReqReplAck, ID: 2, AckLSN: lsn})
	if err != nil {
		return
	}
	f.wmu.Lock()
	server.WriteFrame(c, b)
	f.wmu.Unlock()
}

// onFin stores the terminator and closes the schedule feed: any
// further decision the replica engine asks for is divergence.
func (f *Follower) onFin(resp *server.Response) {
	f.mu.Lock()
	if f.fin == nil {
		f.fin = &fin{
			nChoices:  resp.NChoices,
			nRecords:  resp.NRecords,
			metrics:   resp.Metrics,
			storeHash: resp.StoreHash,
			fired:     resp.Fired,
			halted:    resp.Halted,
			quiescent: resp.Quiescent,
			errMsg:    resp.Error,
		}
	}
	stream := f.stream
	f.mu.Unlock()
	if stream != nil {
		stream.Close(nil)
	}
	f.tryFinish()
}

// tryFinish runs the verification oracle once every input is in: the
// fin frame plus, in replay mode, the replica run's outcome.
func (f *Follower) tryFinish() {
	f.mu.Lock()
	if f.finished || f.err != nil || f.fin == nil ||
		(f.opts.Mode == server.ReplModeReplay && f.out == nil) {
		f.mu.Unlock()
		return
	}
	f.finished = true
	fin := f.fin
	out := f.out
	prog := f.prog
	base := f.base
	commits := append([]trace.Event(nil), f.commits...)
	shadow := f.shadow
	applied := f.appliedLSN
	fed := f.fedChoices
	leftoverOwn, leftoverShipped := len(f.ownAhead), len(f.shippedAhead)
	f.mu.Unlock()

	if fin.errMsg != "" {
		f.fail(fmt.Errorf("repl: primary run failed: %s", fin.errMsg))
		return
	}

	report := &Report{
		Mode:    f.opts.Mode,
		Records: applied,
		Choices: fed,
	}
	var verdict error
	switch f.opts.Mode {
	case server.ReplModeReplay:
		verdict = f.verifyReplay(report, fin, out, prog, shadow, applied, fed, leftoverOwn, leftoverShipped)
	default:
		verdict = f.verifyApply(report, fin, prog, base, shadow, commits, applied)
	}
	if verdict != nil {
		f.diverge(verdict)
		return
	}
	f.mu.Lock()
	f.report = report
	lsn := f.appliedLSN
	f.lastAck = lsn
	f.mu.Unlock()
	f.sendAck(lsn)
	f.doneOnce.Do(func() { close(f.done) })
}

// verifyReplay is the replay-mode divergence oracle: the replica run
// must have completed cleanly, consumed exactly the shipped schedule,
// byte-matched every record, and reproduced the primary's run summary,
// metrics snapshot and store hash; its own trace must be admissible.
func (f *Follower) verifyReplay(report *Report, fin *fin, out *detsched.RunOutcome,
	prog engine.Program, shadow *wm.Store, applied uint64, fed int, leftoverOwn, leftoverShipped int) error {
	if out.SchedErr != nil {
		if serr := f.stream.Err(); serr != nil {
			return fmt.Errorf("%w: %v", ErrDiverged, serr)
		}
		return fmt.Errorf("%w: replica schedule failed: %v", ErrDiverged, out.SchedErr)
	}
	if out.Err != nil {
		return fmt.Errorf("%w: replica engine failed: %v", ErrDiverged, out.Err)
	}
	if fed != fin.nChoices {
		return fmt.Errorf("%w: fed %d choices, primary recorded %d", ErrDiverged, fed, fin.nChoices)
	}
	if consumed := f.stream.Consumed(); consumed != fin.nChoices {
		return fmt.Errorf("%w: replica consumed %d of %d choices", ErrDiverged, consumed, fin.nChoices)
	}
	if applied != fin.nRecords || leftoverOwn != 0 || leftoverShipped != 0 {
		return fmt.Errorf("%w: applied %d of %d records (%d own / %d shipped unmatched)",
			ErrDiverged, applied, fin.nRecords, leftoverOwn, leftoverShipped)
	}
	if out.Result.Firings != fin.fired || out.Result.Halted != fin.halted ||
		quiescentOf(out.Result) != fin.quiescent {
		return fmt.Errorf("%w: run summary fired=%d halted=%v quiescent=%v, primary fired=%d halted=%v quiescent=%v",
			ErrDiverged, out.Result.Firings, out.Result.Halted, quiescentOf(out.Result),
			fin.fired, fin.halted, fin.quiescent)
	}
	mb, err := out.Metrics.MarshalIndent()
	if err != nil {
		return fmt.Errorf("%w: snapshot replica metrics: %v", ErrDiverged, err)
	}
	canon, err := canonMetrics(mb)
	if err != nil {
		return fmt.Errorf("%w: canonicalise replica metrics: %v", ErrDiverged, err)
	}
	if !bytes.Equal(canon, fin.metrics) {
		return fmt.Errorf("%w: metrics snapshot differs (%d vs %d bytes)", ErrDiverged, len(canon), len(fin.metrics))
	}
	hash, err := storeHash(shadow)
	if err != nil {
		return fmt.Errorf("%w: hash replica store: %v", ErrDiverged, err)
	}
	if hash != fin.storeHash {
		return fmt.Errorf("%w: store hash %s, primary %s", ErrDiverged, hash, fin.storeHash)
	}
	if err := engine.CheckTrace(prog, out.Result.Log.Commits()); err != nil {
		return fmt.Errorf("%w: replica trace inadmissible: %v", ErrDiverged, err)
	}
	report.Fired = out.Result.Firings
	report.Halted = out.Result.Halted
	report.Quiescent = quiescentOf(out.Result)
	report.StoreHash = hash
	report.MetricsJSON = mb
	report.TraceChecked = true
	report.Outcome = out
	return nil
}

// verifyApply is the apply-mode oracle: every shipped record folded,
// the store hash equal, and the commit suffix admissible from the
// bootstrap base (CheckTraceFrom).
func (f *Follower) verifyApply(report *Report, fin *fin, prog engine.Program,
	base *wm.Store, shadow *wm.Store, commits []trace.Event, applied uint64) error {
	if applied != fin.nRecords {
		return fmt.Errorf("%w: applied %d of %d records", ErrDiverged, applied, fin.nRecords)
	}
	hash, err := storeHash(shadow)
	if err != nil {
		return fmt.Errorf("%w: hash replica store: %v", ErrDiverged, err)
	}
	if hash != fin.storeHash {
		return fmt.Errorf("%w: store hash %s, primary %s", ErrDiverged, hash, fin.storeHash)
	}
	if err := engine.CheckTraceFrom(base, prog.Rules, commits); err != nil {
		return fmt.Errorf("%w: applied trace inadmissible: %v", ErrDiverged, err)
	}
	report.Fired = fin.fired
	report.Halted = fin.halted
	report.Quiescent = fin.quiescent
	report.StoreHash = hash
	report.TraceChecked = true
	return nil
}

// diverge records a divergence verdict and halts the replica: the
// counter fires, the engine is aborted through the schedule stream,
// and View refuses reads from here on.
func (f *Follower) diverge(err error) {
	if !errors.Is(err, ErrDiverged) {
		err = fmt.Errorf("%w: %v", ErrDiverged, err)
	}
	f.mu.Lock()
	f.divergeLocked(err)
	f.mu.Unlock()
}

func (f *Follower) divergeLocked(err error) {
	if f.err != nil {
		return
	}
	if !errors.Is(err, ErrDiverged) {
		err = fmt.Errorf("%w: %v", ErrDiverged, err)
	}
	f.err = err
	f.met.divergence.Inc()
	if f.stream != nil {
		f.stream.Close(err)
	}
	f.doneOnce.Do(func() { close(f.done) })
}

// fail records a non-divergence failure (primary error, protocol
// breakage) and halts the replica without touching the divergence
// counter.
func (f *Follower) fail(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
		if f.stream != nil {
			f.stream.Close(err)
		}
		f.doneOnce.Do(func() { close(f.done) })
	}
	f.mu.Unlock()
}

func (f *Follower) failf(format string, args ...interface{}) {
	f.fail(fmt.Errorf(format, args...))
}

// Disconnect drops the connection, leaving all replica state in place;
// a replay engine parks on its schedule stream until Connect resumes
// the feed.
func (f *Follower) Disconnect() {
	f.mu.Lock()
	c := f.conn
	f.conn = nil
	f.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// Wait blocks until the stream finished (or failed) and returns the
// report. A divergence satisfies errors.Is(err, ErrDiverged).
func (f *Follower) Wait(timeout time.Duration) (*Report, error) {
	select {
	case <-f.done:
	case <-time.After(timeout):
		return nil, fmt.Errorf("repl: follower %q: no fin after %v (applied %d)", f.opts.ID, timeout, f.AppliedLSN())
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return nil, f.err
	}
	return f.report, nil
}

// View runs fn over the replica store under the follower's lock. It
// refuses to serve a halted replica — a diverged follower never
// answers reads with stale state. fn must not retain or mutate the
// store.
func (f *Follower) View(fn func(*wm.Store)) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return f.err
	}
	if f.shadow == nil {
		return errors.New("repl: follower has no state yet")
	}
	fn(f.shadow)
	return nil
}

// Diverged reports whether the replica halted on divergence.
func (f *Follower) Diverged() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return errors.Is(f.err, ErrDiverged)
}

// AppliedLSN returns the last record folded into the replica store.
func (f *Follower) AppliedLSN() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.appliedLSN
}

// Lag returns shipped-but-unapplied records (the follower-side lag
// gauge's current value).
func (f *Follower) Lag() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.shippedHigh - f.appliedLSN
}

// Close tears the follower down: the connection drops, a running
// replica engine unwinds, and Wait observes ErrFollowerClosed unless
// the stream already finished.
func (f *Follower) Close() {
	f.mu.Lock()
	f.closed = true
	c := f.conn
	f.conn = nil
	if f.err == nil && f.report == nil {
		f.err = ErrFollowerClosed
	}
	stream := f.stream
	exited := f.engineExited
	f.mu.Unlock()
	if c != nil {
		c.Close()
	}
	if stream != nil {
		stream.Close(ErrFollowerClosed)
	}
	if exited != nil {
		select {
		case <-exited:
		case <-time.After(10 * time.Second):
		}
	}
	f.doneOnce.Do(func() { close(f.done) })
}
