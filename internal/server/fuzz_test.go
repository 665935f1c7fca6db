package server

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzDecodeFrame throws arbitrary bytes at both frame decoders (the
// slice form and the stream form): they must agree, never panic, and
// fail only with the typed frame errors.
func FuzzDecodeFrame(f *testing.F) {
	var seed bytes.Buffer
	WriteFrame(&seed, []byte(`{"type":"ping","id":1}`))
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 5, 'a', 'b'})
	f.Fuzz(func(t *testing.T, b []byte) {
		const max = 1 << 16
		payload, rest, err := DecodeFrame(b, max)
		if err != nil {
			if !errors.Is(err, ErrShortFrame) && !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("DecodeFrame: untyped error %v", err)
			}
		} else if len(payload)+len(rest)+frameHeaderLen != len(b) {
			t.Fatalf("DecodeFrame: lost bytes: %d + %d + %d != %d",
				len(payload), len(rest), frameHeaderLen, len(b))
		}
		sp, serr := ReadFrame(bytes.NewReader(b), max)
		if serr != nil {
			if serr != io.EOF && !errors.Is(serr, ErrShortFrame) && !errors.Is(serr, ErrFrameTooLarge) {
				t.Fatalf("ReadFrame: untyped error %v", serr)
			}
		}
		if (err == nil) != (serr == nil) {
			t.Fatalf("decoders disagree: slice err %v, stream err %v", err, serr)
		}
		if err == nil && !bytes.Equal(payload, sp) {
			t.Fatalf("decoders disagree on payload: %q vs %q", payload, sp)
		}
	})
}

// FuzzDecodeRequest throws arbitrary payloads at the request decoder:
// malformed input must produce a typed *ProtocolError, never a panic,
// and accepted requests must re-encode and re-decode cleanly.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []*Request{
		{Type: ReqPing, ID: 1},
		{Type: ReqCreate, ID: 2, Program: "(p a (b ^c <d>) --> (remove 1))",
			Options: SessionOptions{Strategy: "fifo", StorageDir: "x"}},
		{Type: ReqAssert, ID: 3, Session: "s1", WMEs: []string{"(a ^b 1)", "(a ^b 2)"}},
		{Type: ReqRetract, ID: 4, Session: "s1", WMEID: 7},
		{Type: ReqRun, ID: 5, Session: "s1", Max: 100},
		{Type: ReqMetrics, ID: 6},
	}
	for _, q := range seeds {
		b, err := EncodeRequest(q)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{not json`))
	f.Add([]byte(`{"type":"explode","id":9}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, b []byte) {
		q, err := DecodeRequest(b)
		if err != nil {
			pe := &ProtocolError{}
			if !errors.As(err, &pe) {
				t.Fatalf("untyped decode error %v", err)
			}
			return
		}
		if q == nil {
			t.Fatal("nil request with nil error")
		}
		out, err := EncodeRequest(q)
		if err != nil {
			t.Fatalf("re-encode of accepted request: %v", err)
		}
		if _, err := DecodeRequest(out); err != nil {
			t.Fatalf("re-decode of accepted request: %v", err)
		}
	})
}
