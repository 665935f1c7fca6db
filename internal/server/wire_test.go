package server

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte(""), []byte("x"), bytes.Repeat([]byte("abc"), 1000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame round-trip: got %q, want %q", got, want)
		}
	}
	if _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Fatalf("read past end: %v, want io.EOF", err)
	}
}

func TestFrameErrors(t *testing.T) {
	// Oversized length prefix.
	var buf bytes.Buffer
	WriteFrame(&buf, bytes.Repeat([]byte("y"), 100))
	if _, err := ReadFrame(&buf, 10); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize: %v, want ErrFrameTooLarge", err)
	}
	// Truncated payload.
	if _, err := ReadFrame(strings.NewReader("\x00\x00\x00\x10abc"), 0); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("torn payload: %v, want ErrShortFrame", err)
	}
	// Truncated header.
	if _, err := ReadFrame(strings.NewReader("\x00\x00"), 0); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("torn header: %v, want ErrShortFrame", err)
	}
}

func TestDecodeFrameRest(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, []byte("first"))
	WriteFrame(&buf, []byte("second"))
	p1, rest, err := DecodeFrame(buf.Bytes(), 0)
	if err != nil || string(p1) != "first" {
		t.Fatalf("frame 1: %q, %v", p1, err)
	}
	p2, rest, err := DecodeFrame(rest, 0)
	if err != nil || string(p2) != "second" || len(rest) != 0 {
		t.Fatalf("frame 2: %q, rest %d, %v", p2, len(rest), err)
	}
	if _, _, err := DecodeFrame(rest, 0); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("empty buffer: %v, want ErrShortFrame", err)
	}
}

func TestRequestValidation(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		ok   bool
	}{
		{"create ok", Request{Type: ReqCreate, Program: "(p a (b ^c <d>) --> (remove 1))"}, true},
		{"create empty program", Request{Type: ReqCreate}, false},
		{"assert ok", Request{Type: ReqAssert, Session: "s1", WMEs: []string{"(a ^b 1)"}}, true},
		{"assert no session", Request{Type: ReqAssert, WMEs: []string{"(a ^b 1)"}}, false},
		{"assert no tuples", Request{Type: ReqAssert, Session: "s1"}, false},
		{"retract bad id", Request{Type: ReqRetract, Session: "s1", WMEID: -1}, false},
		{"run negative", Request{Type: ReqRun, Session: "s1", Max: -5}, false},
		{"run ok", Request{Type: ReqRun, Session: "s1", Max: 10}, true},
		{"unknown type", Request{Type: "explode"}, false},
		{"metrics sessionless", Request{Type: ReqMetrics}, true},
		{"repl hello default mode", Request{Type: ReqReplHello}, true},
		{"repl hello resume", Request{Type: ReqReplHello, ReplMode: ReplModeReplay, FromChoice: 12, FromLSN: 34}, true},
		{"repl hello apply", Request{Type: ReqReplHello, ReplMode: ReplModeApply}, true},
		{"repl hello bad mode", Request{Type: ReqReplHello, ReplMode: "psychic"}, false},
		{"repl hello negative choice", Request{Type: ReqReplHello, FromChoice: -1}, false},
		{"repl ack", Request{Type: ReqReplAck, AckLSN: 99}, true},
		{"repl ack zero", Request{Type: ReqReplAck}, true},
	}
	for _, tc := range cases {
		b, err := EncodeRequest(&tc.req)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		got, err := DecodeRequest(b)
		if tc.ok {
			if err != nil {
				t.Fatalf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("%s: validation passed, want error", tc.name)
		}
		pe := &ProtocolError{}
		if !errors.As(err, &pe) {
			t.Fatalf("%s: error %v is not a *ProtocolError", tc.name, err)
		}
		if got == nil {
			t.Fatalf("%s: no partial request for ID echo", tc.name)
		}
	}
	// A create from a client that still sends a deleted option decodes,
	// and the field is ignored (DESIGN.md §17).
	for _, raw := range []string{
		`{"type":"create","id":1,"program":"(p a (b) --> (remove 1))","options":{"max_firings":5,"strategy":"fifo"}}`,
		`{"type":"create","id":1,"program":"(p a (b) --> (remove 1))","options":{"matcher":"treat","strategy":"fifo"}}`,
	} {
		q, err := DecodeRequest([]byte(raw))
		if err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		if q.Options != (SessionOptions{Strategy: "fifo"}) {
			t.Fatalf("%s: options = %+v, want strategy fifo only", raw, q.Options)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	in := &Response{Type: RespTrace, ID: 42, Session: "s7", More: true,
		Events: []TraceEvent{{Seq: 3, Kind: "commit", Rule: "r", Inst: "r|1@1", WMEs: []string{"(a ^b 1)"}}}}
	b, err := EncodeResponse(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != 42 || !out.More || len(out.Events) != 1 || out.Events[0].Rule != "r" {
		t.Fatalf("response round-trip: %+v", out)
	}
	ev := out.Events[0].ToTraceEvent()
	if ev.Kind.String() != "commit" || ev.WMEs[0] != "(a ^b 1)" {
		t.Fatalf("trace event conversion: %+v", ev)
	}
}

// TestReplResponseRoundTrip exercises the replication frames: binary
// record payloads must survive the JSON transport byte-for-byte and
// raw metrics snapshots must come back exactly as shipped, because the
// follower's divergence oracle is a byte comparison.
func TestReplResponseRoundTrip(t *testing.T) {
	rec := []byte{0x00, 0x01, 0xfe, 0xff, 'p', 'd', 'p', 's'}
	metrics := []byte(`{"counters":{"engine_commits_total":7}}`)
	frames := []*Response{
		{Type: RespReplHello, ID: 1, ReplMode: ReplModeApply, Program: "(p a (b) --> (remove 1))",
			ReplConfig: []byte(`{"np":4,"seed":42}`), Snapshot: []byte{9, 8, 7}, SnapshotLSN: 16},
		{Type: RespReplChoices, ID: 1, ChoiceSeq: 5, Choices: []ReplChoice{{N: 3, P: 2}, {N: 2, P: 0}}},
		{Type: RespReplRecords, ID: 1, RecLSN: 17, Records: [][]byte{rec, {0xab}}},
		{Type: RespReplFin, ID: 1, NChoices: 40, NRecords: 19, Fired: 19, Quiescent: true,
			StoreHash: "deadbeef", Metrics: metrics},
	}
	for _, in := range frames {
		b, err := EncodeResponse(in)
		if err != nil {
			t.Fatalf("%s: encode: %v", in.Type, err)
		}
		out, err := DecodeResponse(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", in.Type, err)
		}
		switch in.Type {
		case RespReplHello:
			if out.ReplMode != ReplModeApply || out.Program != in.Program ||
				string(out.ReplConfig) != string(in.ReplConfig) ||
				!bytes.Equal(out.Snapshot, in.Snapshot) || out.SnapshotLSN != 16 {
				t.Fatalf("hello round-trip: %+v", out)
			}
		case RespReplChoices:
			if out.ChoiceSeq != 5 || len(out.Choices) != 2 || out.Choices[0] != (ReplChoice{N: 3, P: 2}) {
				t.Fatalf("choices round-trip: %+v", out)
			}
		case RespReplRecords:
			if out.RecLSN != 17 || len(out.Records) != 2 || !bytes.Equal(out.Records[0], rec) {
				t.Fatalf("records round-trip: %+v", out)
			}
		case RespReplFin:
			if out.NChoices != 40 || out.NRecords != 19 || out.StoreHash != "deadbeef" ||
				!bytes.Equal(out.Metrics, metrics) {
				t.Fatalf("fin round-trip: %+v", out)
			}
		}
	}
}
