package wm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Persistence gives working memory the "knowledge persistence" the
// paper's introduction motivates. This file holds the two codecs it
// rests on: point-in-time snapshots, and the commit-delta encoding
// that internal/storage frames into its log segments. A store is
// recovered by loading a snapshot and re-applying logged deltas with
// ApplyLogged; framing, checksums and the torn-tail policy belong to
// the storage layer.

const snapshotMagic = "PDPSSNP1"

// WriteSnapshot serialises the store's current contents, including the
// ID and recency counters, so recovery continues the same sequences.
func (s *Store) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	all := s.All() // deterministic order: by ID
	b := append([]byte(nil), snapshotMagic...)
	b = appendU64(b, uint64(s.nextID.Load()))
	b = appendU64(b, s.clock.Load())
	b = appendU64(b, uint64(len(all)))
	for _, wme := range all {
		if _, err := bw.Write(b); err != nil {
			return err
		}
		b = appendWME(b[:0], wme)
	}
	if _, err := bw.Write(b); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadSnapshot reconstructs a store from a snapshot stream. The stream
// is read whole and decoded with the same reader as the delta codec.
func ReadSnapshot(r io.Reader) (*Store, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("wm: snapshot: %w", err)
	}
	if len(b) < len(snapshotMagic) {
		return nil, fmt.Errorf("wm: snapshot header: %w", io.ErrUnexpectedEOF)
	}
	if magic := b[:len(snapshotMagic)]; string(magic) != snapshotMagic {
		return nil, fmt.Errorf("wm: bad snapshot magic %q", magic)
	}
	p := &byteReader{b: b, pos: len(snapshotMagic)}
	var head [3]uint64 // next ID, clock, WME count
	for i := range head {
		if head[i], err = p.u64(); err != nil {
			return nil, fmt.Errorf("wm: snapshot header: %w", err)
		}
	}
	s := NewStore()
	s.nextID.Store(int64(head[0]))
	s.clock.Store(head[1])
	for i := uint64(0); i < head[2]; i++ {
		w, err := p.wme()
		if err != nil {
			return nil, fmt.Errorf("wm: snapshot WME %d: %w", i, err)
		}
		s.add(w)
	}
	return s, nil
}

// EncodeDelta appends the log encoding of a commit delta to b: removes
// as (id, timetag) pairs, adds as full WMEs.
func EncodeDelta(b []byte, d *Delta) []byte {
	b = appendU64(b, uint64(len(d.Removes)))
	for _, w := range d.Removes {
		b = appendU64(b, uint64(w.ID))
		b = appendU64(b, w.TimeTag)
	}
	b = appendU64(b, uint64(len(d.Adds)))
	for _, w := range d.Adds {
		b = appendWME(b, w)
	}
	return b
}

// DecodeDelta parses an EncodeDelta body. Removed WMEs come back as
// stubs carrying only ID and TimeTag (the log does not keep their
// content); adds are complete. The whole body must be consumed.
func DecodeDelta(body []byte) (*Delta, error) {
	p := &byteReader{b: body}
	d := &Delta{}
	nRem, err := p.u64()
	if err != nil {
		return nil, err
	}
	if nRem > 1<<24 {
		return nil, fmt.Errorf("wm: absurd remove count %d", nRem)
	}
	for i := uint64(0); i < nRem; i++ {
		id, err := p.u64()
		if err != nil {
			return nil, err
		}
		tag, err := p.u64()
		if err != nil {
			return nil, err
		}
		d.Removes = append(d.Removes, &WME{ID: int64(id), TimeTag: tag})
	}
	nAdd, err := p.u64()
	if err != nil {
		return nil, err
	}
	if nAdd > 1<<24 {
		return nil, fmt.Errorf("wm: absurd add count %d", nAdd)
	}
	for i := uint64(0); i < nAdd; i++ {
		w, err := p.wme()
		if err != nil {
			return nil, err
		}
		d.Adds = append(d.Adds, w)
	}
	if p.pos != len(body) {
		return nil, fmt.Errorf("wm: delta record: %d trailing bytes", len(body)-p.pos)
	}
	return d, nil
}

// ApplyLogged re-applies a decoded delta exactly, preserving IDs and
// time tags rather than re-assigning them. Recovery is sequential, so
// the high-water counter updates need no compare-and-swap loop. The
// delta must match the store state it was logged against: a remove of
// an absent WME or an add of an already-present ID is an error, and
// the store is left partially updated (callers treat this as fatal
// mid-log corruption, not a recoverable tail).
func (s *Store) ApplyLogged(d *Delta) error {
	for _, w := range d.Removes {
		if _, ok := s.Remove(w.ID); !ok {
			return fmt.Errorf("remove of absent WME %d", w.ID)
		}
	}
	for _, w := range d.Adds {
		if _, dup := s.Get(w.ID); dup {
			return fmt.Errorf("add of duplicate WME %d", w.ID)
		}
		s.add(w)
		if w.ID > s.nextID.Load() {
			s.nextID.Store(w.ID)
		}
		if w.TimeTag > s.clock.Load() {
			s.clock.Store(w.TimeTag)
		}
	}
	return nil
}

// --- encoding helpers ---

func appendU64(b []byte, v uint64) []byte {
	var t [8]byte
	binary.BigEndian.PutUint64(t[:], v)
	return append(b, t[:]...)
}

func appendString(b []byte, s string) []byte {
	b = appendU64(b, uint64(len(s)))
	return append(b, s...)
}

func appendValue(b []byte, v Value) []byte {
	b = append(b, byte(v.kind))
	switch v.kind {
	case KindInt, KindBool:
		b = appendU64(b, uint64(v.i))
	case KindFloat:
		b = appendU64(b, math.Float64bits(v.f))
	case KindString, KindSymbol:
		b = appendString(b, v.s)
	}
	return b
}

func appendWME(b []byte, w *WME) []byte {
	b = appendU64(b, uint64(w.ID))
	b = appendU64(b, w.TimeTag)
	b = appendString(b, w.Class)
	b = appendU64(b, uint64(len(w.attrs)))
	for _, a := range w.attrs {
		b = appendString(b, a.name)
		b = appendValue(b, a.val)
	}
	return b
}

// byteReader decodes snapshots and delta records from memory. Every
// length it reads is checked against the bytes that remain, so a
// corrupt or hostile length is an error, never a slice panic.
type byteReader struct {
	b   []byte
	pos int
}

// remaining reports whether at least n more bytes are available.
func (r *byteReader) remaining(n uint64) bool {
	return n <= uint64(len(r.b)-r.pos)
}

func (r *byteReader) u64() (uint64, error) {
	if !r.remaining(8) {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.BigEndian.Uint64(r.b[r.pos:])
	r.pos += 8
	return v, nil
}

func (r *byteReader) str() (string, error) {
	n, err := r.u64()
	if err != nil {
		return "", err
	}
	if !r.remaining(n) {
		return "", io.ErrUnexpectedEOF
	}
	s := string(r.b[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

func (r *byteReader) value() (Value, error) {
	if !r.remaining(1) {
		return Value{}, io.ErrUnexpectedEOF
	}
	kind := Kind(r.b[r.pos])
	r.pos++
	switch kind {
	case KindNil:
		return Nil(), nil
	case KindInt, KindBool:
		v, err := r.u64()
		return Value{kind: kind, i: int64(v)}, err
	case KindFloat:
		v, err := r.u64()
		return Float(math.Float64frombits(v)), err
	case KindString, KindSymbol:
		s, err := r.str()
		return Value{kind: kind, s: s}, err
	}
	return Value{}, fmt.Errorf("wm: unknown value kind %d", kind)
}

func (r *byteReader) wme() (*WME, error) {
	id, err := r.u64()
	if err != nil {
		return nil, err
	}
	tag, err := r.u64()
	if err != nil {
		return nil, err
	}
	class, err := r.str()
	if err != nil {
		return nil, err
	}
	n, err := r.u64()
	if err != nil {
		return nil, err
	}
	// Each attribute takes at least a length word and a kind byte.
	if n > 1<<24 || !r.remaining(n*9) {
		return nil, io.ErrUnexpectedEOF
	}
	attrs := make([]attr, 0, n)
	for i := uint64(0); i < n; i++ {
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		v, err := r.value()
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, attr{name, v})
	}
	return &WME{ID: int64(id), TimeTag: tag, Class: class, attrs: lastWins(attrs)}, nil
}

// lastWins sorts decoded attributes by name and keeps the last of any
// repeated name, as a map filled in record order would.
func lastWins(a []attr) []attr {
	slices.SortStableFunc(a, byName)
	out := a[:0]
	for i, x := range a {
		if i+1 < len(a) && a[i+1].name == x.name {
			continue
		}
		out = append(out, x)
	}
	return out
}
