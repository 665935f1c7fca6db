package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// maxRecordBytes bounds a single framed record; larger length fields
// are treated as corruption (or a torn frame, if at the tail).
const maxRecordBytes = 1 << 30

// appendFrame appends one framed record to dst: an 8-byte big-endian
// body length, a CRC32 (IEEE) of the body, then the body itself.
func appendFrame(dst, body []byte) []byte {
	var frame [12]byte
	binary.BigEndian.PutUint64(frame[:8], uint64(len(body)))
	binary.BigEndian.PutUint32(frame[8:], crc32.ChecksumIEEE(body))
	dst = append(dst, frame[:]...)
	return append(dst, body...)
}

// frameScanner reads a stream of appendFrame records, implementing the
// recovery policy for crash-truncated logs: a record that cannot be
// read in full, or that fails its checksum with nothing but zero bytes
// after it, is a torn tail and ends the scan with io.EOF; a bad record
// with real data after it is corruption and errors. valid is the
// length of the validated prefix, so callers can truncate the file
// there.
type frameScanner struct {
	br      *bufio.Reader
	valid   int64 // bytes of validated prefix, including the header
	lastLen int64 // framed size of the last record next returned
	records int   // records accepted so far
}

// next returns the next complete, checksum-valid record body. It
// returns io.EOF at a clean end of log or at a torn tail, and an error
// for mid-log corruption.
func (fs *frameScanner) next() ([]byte, error) {
	var frame [12]byte
	if _, err := io.ReadFull(fs.br, frame[:]); err != nil {
		return nil, io.EOF // clean end or torn frame
	}
	length := binary.BigEndian.Uint64(frame[:8])
	sum := binary.BigEndian.Uint32(frame[8:])
	if length > maxRecordBytes {
		return nil, fs.tailOr(fmt.Errorf("absurd length %d", length))
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(fs.br, body); err != nil {
		return nil, io.EOF // torn body
	}
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fs.tailOr(fmt.Errorf("checksum mismatch"))
	}
	fs.lastLen = 12 + int64(length)
	fs.valid += fs.lastLen
	fs.records++
	return body, nil
}

// reject reports that the body next most recently returned failed to
// decode despite a valid checksum (a zero-filled tail checksums
// cleanly: CRC32 of an empty body is zero). It applies the same
// tail-versus-corruption policy as next — io.EOF if the bad record is
// the tail, an error wrapping cause otherwise — and unwinds the record
// from the validated prefix.
func (fs *frameScanner) reject(cause error) error {
	fs.valid -= fs.lastLen
	fs.records--
	fs.lastLen = 0
	return fs.tailOr(cause)
}

// tailOr decides whether a bad record is a torn tail: if the rest of
// the stream is empty or all zero bytes (a crash mid-append can leave
// a zero-filled block), the scan ends with io.EOF; any real data after
// the bad record means mid-log corruption and cause is returned.
func (fs *frameScanner) tailOr(cause error) error {
	for {
		b, err := fs.br.ReadByte()
		if err != nil {
			return io.EOF
		}
		if b != 0 {
			return fmt.Errorf("%w (followed by further data)", cause)
		}
	}
}
