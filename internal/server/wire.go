// Package server turns the production-system library into a
// multi-tenant network service: a TCP wire protocol hosting many
// concurrent engine sessions, one tenant per session, with streaming
// ingest of working-memory events, batched run commands, streamed
// commit traces, and metrics snapshots — the "system with traffic"
// refactor the roadmap's scale items hang off.
//
// The protocol is deliberately simple: length-prefixed frames, each
// carrying one JSON-encoded request or response. Requests address a
// session by ID; a connection may create and drive any number of
// sessions, and responses carry the request's ID so a client can
// multiplex. A `run` command streams the session's new trace events
// back in batches as firing proceeds (More=true frames), terminated
// by the run summary — the commit subsequence of those events is the
// execution string a client checks with CheckTrace (Definition 3.2),
// so a tenant can audit that the outcome it observed is admissible
// under the single-thread semantics.
//
// Per-session dispatch queues are bounded: when a tenant's committer
// falls behind, new ingest is either shed with a typed "overloaded"
// error or blocks the connection (per server config), and every such
// event increments server_ingest_backpressure_total. See
// docs/SERVER.md for the frame catalog and lifecycle.
package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// DefaultMaxFrame bounds a frame payload (1 MiB). Programs, ingest
// batches and trace batches all fit comfortably; anything larger is a
// protocol error, not a bigger allocation.
const DefaultMaxFrame = 1 << 20

// frameHeaderLen is the length prefix size (big-endian uint32).
const frameHeaderLen = 4

// Frame-layer errors. They are returned typed so fault-injection and
// fuzz tests can assert malformed input never panics and never
// surfaces an untyped failure.
var (
	// ErrFrameTooLarge reports a length prefix above the configured
	// maximum — the connection is poisoned and must be closed.
	ErrFrameTooLarge = errors.New("server: frame exceeds maximum size")
	// ErrShortFrame reports a frame truncated mid-header or mid-payload.
	ErrShortFrame = errors.New("server: short frame")
)

// Error codes carried by error responses. They are part of the wire
// contract: clients branch on Code, not on message text.
const (
	// CodeBadRequest rejects a malformed or invalid request.
	CodeBadRequest = "bad_request"
	// CodeNotFound reports an unknown session ID.
	CodeNotFound = "not_found"
	// CodeOverloaded reports admission control or backpressure shedding:
	// the session's dispatch queue (or the server's session table) is
	// full. The request was not executed; the client may retry.
	CodeOverloaded = "overloaded"
	// CodeClosed reports a session or server that shut down before or
	// while the request was queued.
	CodeClosed = "closed"
	// CodeInternal reports a server-side execution failure.
	CodeInternal = "internal"
)

// ProtocolError is a typed request-validation error; Code is one of
// the wire error codes.
type ProtocolError struct {
	Code string
	Msg  string
}

// Error renders the code and message.
func (e *ProtocolError) Error() string { return fmt.Sprintf("server: %s: %s", e.Code, e.Msg) }

func badReq(format string, args ...interface{}) error {
	return &ProtocolError{Code: CodeBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	buf := make([]byte, 0, frameHeaderLen+len(payload))
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame payload, enforcing the size bound before
// allocating. max <= 0 means DefaultMaxFrame. io.EOF is returned
// untouched on a clean boundary; a frame cut mid-header or mid-payload
// yields ErrShortFrame.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: header: %v", ErrShortFrame, err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > uint32(max) {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrShortFrame, err)
	}
	return payload, nil
}

// DecodeFrame splits one frame off a byte buffer and returns the
// payload and the remaining bytes — the slice-level twin of ReadFrame
// used by the fuzz targets.
func DecodeFrame(buf []byte, max int) (payload, rest []byte, err error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	if len(buf) < frameHeaderLen {
		return nil, nil, fmt.Errorf("%w: %d header bytes", ErrShortFrame, len(buf))
	}
	n := binary.BigEndian.Uint32(buf[:frameHeaderLen])
	if n > uint32(max) {
		return nil, nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	}
	if uint32(len(buf)-frameHeaderLen) < n {
		return nil, nil, fmt.Errorf("%w: %d payload bytes of %d", ErrShortFrame, len(buf)-frameHeaderLen, n)
	}
	end := frameHeaderLen + int(n)
	return buf[frameHeaderLen:end], buf[end:], nil
}

// Request types.
const (
	// ReqCreate builds a new session from a program and options.
	ReqCreate = "create"
	// ReqAttach validates that a session exists (a second connection
	// joining a tenant).
	ReqAttach = "attach"
	// ReqAssert ingests tuple literals into the session's working memory.
	ReqAssert = "assert"
	// ReqRetract removes a WME by ID.
	ReqRetract = "retract"
	// ReqRun fires up to Max productions, streaming trace batches.
	ReqRun = "run"
	// ReqTrace drains the session's un-streamed trace events.
	ReqTrace = "trace"
	// ReqWMEs dumps the session's working-memory fingerprints.
	ReqWMEs = "wmes"
	// ReqMetrics snapshots the session's (or, without a session, the
	// server's) metrics registry.
	ReqMetrics = "metrics"
	// ReqClose tears the session down.
	ReqClose = "close"
	// ReqPing is a liveness no-op.
	ReqPing = "ping"
	// ReqReplHello subscribes the connection to a replication primary's
	// stream (internal/repl). ReplMode selects replay or apply;
	// FromChoice/FromLSN resume a follower that reconnected mid-stream.
	ReqReplHello = "repl_hello"
	// ReqReplAck reports the highest LSN a follower has applied. It has
	// no response; the primary folds it into its lag gauge and uses it
	// to decide when the stream has drained.
	ReqReplAck = "repl_ack"
)

// Replication modes carried by repl_hello (see docs/REPLICATION.md).
const (
	// ReplModeReplay re-executes the primary's run decision by decision
	// under a deterministic controller and byte-compares every commit
	// record, the final metrics snapshot and the store hash.
	ReplModeReplay = "replay"
	// ReplModeApply bootstraps from a shipped checkpoint snapshot and
	// folds the record suffix into a store without re-executing — the
	// catch-up path for late joiners.
	ReplModeApply = "apply"
)

// SessionOptions is the per-tenant engine configuration carried by a
// create request. The zero value selects LEX conflict resolution; every
// session matches with the Rete network, and each run command carries
// its own firing bound.
type SessionOptions struct {
	// Strategy selects conflict resolution: "lex" (default), "mea",
	// "fifo" or "priority".
	Strategy string `json:"strategy,omitempty"`
	// StorageDir, when non-empty, opens a durable file backend under
	// the server's storage root: ingested events and committed firings
	// are logged and fsynced, and re-creating a session on the same
	// directory recovers the surviving state (PR 6 semantics). The
	// path must be relative and must not escape the root.
	StorageDir string `json:"storage_dir,omitempty"`
}

// Request is one client command. Type discriminates; the other fields
// are per-type (see the Req constants).
type Request struct {
	Type    string `json:"type"`
	ID      uint64 `json:"id"`
	Session string `json:"session,omitempty"`

	// Create.
	Program string         `json:"program,omitempty"`
	Options SessionOptions `json:"options,omitempty"`

	// Assert: tuple literals "(class ^attr value ...)".
	WMEs []string `json:"wmes,omitempty"`
	// Retract.
	WMEID int64 `json:"wme_id,omitempty"`
	// Run.
	Max int `json:"max,omitempty"`

	// Replication (repl_hello / repl_ack).
	ReplMode   string `json:"repl_mode,omitempty"`
	FromChoice int    `json:"from_choice,omitempty"`
	FromLSN    uint64 `json:"from_lsn,omitempty"`
	AckLSN     uint64 `json:"ack_lsn,omitempty"`
}

// EncodeRequest marshals a request payload.
func EncodeRequest(q *Request) ([]byte, error) { return json.Marshal(q) }

// DecodeRequest unmarshals and validates a request payload. A JSON
// failure or unknown type yields a *ProtocolError; the partially
// decoded request is returned alongside validation errors so the
// server can echo the request ID in its error response.
func DecodeRequest(b []byte) (*Request, error) {
	q := &Request{}
	if err := json.Unmarshal(b, q); err != nil {
		return nil, badReq("request JSON: %v", err)
	}
	switch q.Type {
	case ReqCreate:
		if q.Program == "" {
			return q, badReq("create: empty program")
		}
	case ReqAttach, ReqTrace, ReqWMEs, ReqClose:
		if q.Session == "" {
			return q, badReq("%s: missing session", q.Type)
		}
	case ReqAssert:
		if q.Session == "" {
			return q, badReq("assert: missing session")
		}
		if len(q.WMEs) == 0 {
			return q, badReq("assert: no tuples")
		}
	case ReqRetract:
		if q.Session == "" {
			return q, badReq("retract: missing session")
		}
		if q.WMEID <= 0 {
			return q, badReq("retract: bad WME id %d", q.WMEID)
		}
	case ReqRun:
		if q.Session == "" {
			return q, badReq("run: missing session")
		}
		if q.Max < 0 {
			return q, badReq("run: negative max")
		}
	case ReqMetrics, ReqPing:
		// Session optional (metrics) or ignored (ping).
	case ReqReplHello:
		switch q.ReplMode {
		case "", ReplModeReplay, ReplModeApply:
		default:
			return q, badReq("repl_hello: unknown mode %q", q.ReplMode)
		}
		if q.FromChoice < 0 {
			return q, badReq("repl_hello: negative from_choice")
		}
	case ReqReplAck:
		// AckLSN zero is a valid "nothing applied yet" ack.
	default:
		return q, badReq("unknown request type %q", q.Type)
	}
	return q, nil
}

// Response types.
const (
	// RespOK acknowledges assert/retract/attach/close.
	RespOK = "ok"
	// RespCreated returns a new session's ID and recovery summary.
	RespCreated = "created"
	// RespRun is the terminal summary of a run command.
	RespRun = "run"
	// RespTrace carries a batch of trace events; More marks a mid-run
	// push with further frames to follow for the same request ID.
	RespTrace = "trace"
	// RespWMEs carries a working-memory dump.
	RespWMEs = "wmes"
	// RespMetrics carries a metrics snapshot as JSON.
	RespMetrics = "metrics"
	// RespError carries a typed error code.
	RespError = "error"
	// RespPong answers a ping.
	RespPong = "pong"
	// RespReplHello answers a repl_hello with the program, the run
	// configuration and, in apply mode, a bootstrap snapshot.
	RespReplHello = "repl_hello"
	// RespReplChoices pushes a batch of scheduling decisions; ChoiceSeq
	// is the 0-based index of the first.
	RespReplChoices = "repl_choices"
	// RespReplRecords pushes a batch of encoded commit records; RecLSN
	// is the LSN of the first.
	RespReplRecords = "repl_records"
	// RespReplFin terminates the stream with the primary run's totals,
	// metrics snapshot and store hash — the divergence oracle.
	RespReplFin = "repl_fin"
)

// ReplChoice is the wire form of one scheduling decision
// (sched.Choice): the branching factor and the index picked.
type ReplChoice struct {
	N int `json:"n"`
	P int `json:"p"`
}

// TraceEvent is the wire form of one trace-log event. Kind uses the
// trace package's string names ("fire", "commit", "abort", "skip",
// "halt"); WMEs are the matched tuples' content fingerprints — exactly
// what CheckTrace consumes, so a streamed commit trace round-trips
// into the consistency checker without loss.
type TraceEvent struct {
	Seq    int      `json:"seq"`
	Kind   string   `json:"kind"`
	Rule   string   `json:"rule"`
	Inst   string   `json:"inst,omitempty"`
	Detail string   `json:"detail,omitempty"`
	WMEs   []string `json:"wmes,omitempty"`
}

// Response is one server reply or push frame. ID echoes the request.
type Response struct {
	Type    string `json:"type"`
	ID      uint64 `json:"id"`
	Session string `json:"session,omitempty"`

	// Error.
	Code  string `json:"code,omitempty"`
	Error string `json:"error,omitempty"`

	// Created: recovery summary (0/0 for a fresh session).
	Recovered int    `json:"recovered,omitempty"`
	LSN       uint64 `json:"lsn,omitempty"`

	// Assert: IDs of the inserted WMEs.
	IDs []int64 `json:"ids,omitempty"`

	// Run summary.
	Fired     int  `json:"fired,omitempty"`
	Halted    bool `json:"halted,omitempty"`
	Quiescent bool `json:"quiescent,omitempty"`

	// Trace batch.
	More   bool         `json:"more,omitempty"`
	Events []TraceEvent `json:"events,omitempty"`

	// WME dump.
	WMEs []string `json:"wmes,omitempty"`

	// Metrics snapshot (obs.Snapshot JSON). Also carried by repl_fin,
	// where it must be byte-identical to the follower's own snapshot.
	Metrics json.RawMessage `json:"metrics,omitempty"`

	// Replication handshake (repl_hello): the program source, the
	// JSON-encoded run configuration, the granted mode and, for apply
	// mode, the bootstrap snapshot and the LSN it covers.
	Program     string          `json:"program,omitempty"`
	ReplMode    string          `json:"repl_mode,omitempty"`
	ReplConfig  json.RawMessage `json:"repl_config,omitempty"`
	Snapshot    []byte          `json:"snapshot,omitempty"`
	SnapshotLSN uint64          `json:"snapshot_lsn,omitempty"`

	// Replication stream (repl_choices / repl_records / repl_fin).
	ChoiceSeq int          `json:"choice_seq,omitempty"`
	Choices   []ReplChoice `json:"choices,omitempty"`
	RecLSN    uint64       `json:"rec_lsn,omitempty"`
	Records   [][]byte     `json:"records,omitempty"`
	NChoices  int          `json:"n_choices,omitempty"`
	NRecords  uint64       `json:"n_records,omitempty"`
	StoreHash string       `json:"store_hash,omitempty"`
}

// EncodeResponse marshals a response payload.
func EncodeResponse(p *Response) ([]byte, error) { return json.Marshal(p) }

// DecodeResponse unmarshals a response payload.
func DecodeResponse(b []byte) (*Response, error) {
	p := &Response{}
	if err := json.Unmarshal(b, p); err != nil {
		return nil, badReq("response JSON: %v", err)
	}
	return p, nil
}
