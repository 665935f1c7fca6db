package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"pdps/internal/trace"
)

// ServerError is a typed error response from the server; Code is one
// of the wire error codes.
type ServerError struct {
	Code string
	Msg  string
}

// Error renders the code and message.
func (e *ServerError) Error() string { return fmt.Sprintf("server: %s: %s", e.Code, e.Msg) }

// IsOverloaded reports whether the error is a backpressure or
// admission-control rejection (retryable).
func IsOverloaded(err error) bool {
	se, ok := err.(*ServerError)
	return ok && se.Code == CodeOverloaded
}

// RunResult is the outcome of a run command: the summary plus every
// trace event streamed for it.
type RunResult struct {
	// Fired is the number of productions committed by this run.
	Fired int
	// Halted reports a halt action stopped the run.
	Halted bool
	// Quiescent reports the conflict set drained.
	Quiescent bool
	// Events are the trace events streamed during the run, in order.
	Events []TraceEvent
}

// ToTraceEvent converts a wire event back into a trace.Event — the
// form CheckTrace consumes. Commit events round-trip losslessly (rule,
// instantiation key, WME fingerprints).
func (e TraceEvent) ToTraceEvent() trace.Event {
	var k trace.Kind
	switch e.Kind {
	case "fire":
		k = trace.KindFire
	case "commit":
		k = trace.KindCommit
	case "abort":
		k = trace.KindAbort
	case "skip":
		k = trace.KindSkip
	case "halt":
		k = trace.KindHalt
	}
	return trace.Event{Seq: e.Seq, Kind: k, Rule: e.Rule, Inst: e.Inst,
		Detail: e.Detail, WMEs: e.WMEs}
}

// Commits filters a streamed event batch down to the commit
// subsequence as trace events — the execution string for CheckTrace.
func Commits(events []TraceEvent) []trace.Event {
	var out []trace.Event
	for _, e := range events {
		if e.Kind == "commit" {
			out = append(out, e.ToTraceEvent())
		}
	}
	return out
}

// Client is a wire-protocol client multiplexing any number of
// sessions over one connection. All methods are safe for concurrent
// use; responses (including mid-run trace pushes) are demultiplexed
// by request ID on a background reader goroutine.
type Client struct {
	c      net.Conn
	wmu    sync.Mutex
	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan *Response
	readErr error
	closed  chan struct{}
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc), nil
}

// NewClient adopts a connection and starts the response reader.
func NewClient(nc net.Conn) *Client {
	c := &Client{c: nc, pending: make(map[uint64]chan *Response), closed: make(chan struct{})}
	go c.readLoop()
	return c
}

// Close severs the connection; in-flight calls fail. Sessions created
// by this client are reaped by the server.
func (c *Client) Close() error { return c.c.Close() }

func (c *Client) readLoop() {
	br := bufio.NewReader(c.c)
	for {
		payload, err := ReadFrame(br, DefaultMaxFrame)
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			c.mu.Unlock()
			close(c.closed)
			c.c.Close()
			return
		}
		resp, err := DecodeResponse(payload)
		if err != nil {
			continue
		}
		c.mu.Lock()
		ch := c.pending[resp.ID]
		c.mu.Unlock()
		if ch != nil {
			// The channel is sized for a full run's push frames; a
			// blocked send here is TCP backpressure onto the server.
			ch <- resp
		}
	}
}

// call registers a pending channel, sends the request, and returns
// the channel plus a deregistration func.
func (c *Client) call(q *Request) (chan *Response, func(), error) {
	q.ID = c.nextID.Add(1)
	ch := make(chan *Response, 1024)
	c.mu.Lock()
	c.pending[q.ID] = ch
	c.mu.Unlock()
	cancel := func() {
		c.mu.Lock()
		delete(c.pending, q.ID)
		c.mu.Unlock()
	}
	payload, err := EncodeRequest(q)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	c.wmu.Lock()
	err = WriteFrame(c.c, payload)
	c.wmu.Unlock()
	if err != nil {
		cancel()
		return nil, nil, err
	}
	return ch, cancel, nil
}

// await reads one frame for the call, surfacing connection death.
func (c *Client) await(ch chan *Response) (*Response, error) {
	select {
	case resp := <-ch:
		if resp.Type == RespError {
			return nil, &ServerError{Code: resp.Code, Msg: resp.Error}
		}
		return resp, nil
	case <-c.closed:
		c.mu.Lock()
		err := c.readErr
		c.mu.Unlock()
		return nil, fmt.Errorf("server: connection lost: %w", err)
	}
}

// do sends a request and returns its single response.
func (c *Client) do(q *Request) (*Response, error) {
	ch, cancel, err := c.call(q)
	if err != nil {
		return nil, err
	}
	defer cancel()
	return c.await(ch)
}

// Create builds a session from a program source and options and
// returns its ID plus the recovery summary (records recovered and
// durable LSN; zero for fresh or ephemeral sessions).
func (c *Client) Create(program string, opts SessionOptions) (id string, recovered int, lsn uint64, err error) {
	resp, err := c.do(&Request{Type: ReqCreate, Program: program, Options: opts})
	if err != nil {
		return "", 0, 0, err
	}
	return resp.Session, resp.Recovered, resp.LSN, nil
}

// Attach validates that the session exists.
func (c *Client) Attach(session string) error {
	_, err := c.do(&Request{Type: ReqAttach, Session: session})
	return err
}

// Assert ingests tuple literals and returns the new WME IDs.
func (c *Client) Assert(session string, tuples ...string) ([]int64, error) {
	resp, err := c.do(&Request{Type: ReqAssert, Session: session, WMEs: tuples})
	if err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// Retract removes a WME by ID.
func (c *Client) Retract(session string, id int64) error {
	_, err := c.do(&Request{Type: ReqRetract, Session: session, WMEID: id})
	return err
}

// Run fires up to max productions (0 means the server's default),
// collecting the streamed trace batches until the run summary.
func (c *Client) Run(session string, max int) (RunResult, error) {
	ch, cancel, err := c.call(&Request{Type: ReqRun, Session: session, Max: max})
	if err != nil {
		return RunResult{}, err
	}
	defer cancel()
	var out RunResult
	for {
		resp, err := c.await(ch)
		if err != nil {
			return out, err
		}
		switch resp.Type {
		case RespTrace:
			out.Events = append(out.Events, resp.Events...)
		case RespRun:
			out.Fired, out.Halted, out.Quiescent = resp.Fired, resp.Halted, resp.Quiescent
			return out, nil
		default:
			return out, fmt.Errorf("server: unexpected %s frame during run", resp.Type)
		}
	}
}

// Trace drains the session's trace events not yet streamed to any
// request (run pushes advance the same cursor).
func (c *Client) Trace(session string) ([]TraceEvent, error) {
	resp, err := c.do(&Request{Type: ReqTrace, Session: session})
	if err != nil {
		return nil, err
	}
	return resp.Events, nil
}

// WMEs dumps the session's working memory as content fingerprints,
// ordered by WME ID.
func (c *Client) WMEs(session string) ([]string, error) {
	resp, err := c.do(&Request{Type: ReqWMEs, Session: session})
	if err != nil {
		return nil, err
	}
	return resp.WMEs, nil
}

// Metrics snapshots the session's engine registry, or the server's
// own registry when session is empty, as obs.Snapshot JSON.
func (c *Client) Metrics(session string) (json.RawMessage, error) {
	resp, err := c.do(&Request{Type: ReqMetrics, Session: session})
	if err != nil {
		return nil, err
	}
	return resp.Metrics, nil
}

// CloseSession tears the session down; it returns once the server has
// fully reaped it (engine stopped, storage backend closed).
func (c *Client) CloseSession(session string) error {
	_, err := c.do(&Request{Type: ReqClose, Session: session})
	return err
}

// Ping round-trips a liveness frame.
func (c *Client) Ping() error {
	_, err := c.do(&Request{Type: ReqPing})
	return err
}
