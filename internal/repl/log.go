package repl

import (
	"bytes"
	"fmt"
	"sync"

	"pdps/internal/sched"
	"pdps/internal/storage"
	"pdps/internal/wm"
)

// checkpointEntry is one shadow-store snapshot, taken every
// CheckpointEvery records; LSN is the last record the snapshot folds
// in. Entry 0 (LSN 0) is the initial working memory, so apply-mode
// bootstrap always has a base.
type checkpointEntry struct {
	lsn  uint64
	snap []byte
}

// replLog is the primary's in-memory replication log: the choice
// sequence, the encoded records (index i holds LSN i+1), periodic
// checkpoints of the shadow store, and the fin terminator. Appenders
// run on controlled engine tasks (OnChoice with the controller lock
// held, the tee backend on the committer), so appends must never block
// on the network: streamers copy batches under the lock and write
// outside it.
//
// The shadow store is the canonical replica-state oracle. It is built
// exactly the way a follower builds its store — initial WMEs inserted
// in program order, then ApplyLogged per decoded record — and NOT by
// snapshotting the live engine store, whose nextID/clock counters can
// run ahead of a log-reconstructed store (removed WMEs still consumed
// IDs there). Hashing and checkpointing the shadow keeps the oracle
// byte-comparable on both sides.
type replLog struct {
	mu          sync.Mutex
	cond        *sync.Cond
	choices     []sched.Choice
	records     [][]byte
	checkpoints []checkpointEntry
	shadow      *wm.Store
	every       int // records between checkpoints
	fin         *fin
	failure     error // shadow-apply failure: poisons the stream at fin
	closed      bool
}

func newReplLog(initial *wm.Store, every int) (*replLog, error) {
	l := &replLog{shadow: initial, every: every}
	l.cond = sync.NewCond(&l.mu)
	snap, err := snapshotBytes(initial)
	if err != nil {
		return nil, err
	}
	l.checkpoints = []checkpointEntry{{lsn: 0, snap: snap}}
	return l, nil
}

func snapshotBytes(s *wm.Store) ([]byte, error) {
	var b bytes.Buffer
	if err := s.WriteSnapshot(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// appendChoice records one scheduling decision. It is the Det.OnChoice
// hook: called with the controller lock held, so it must stay cheap
// and never call back into the controller.
func (l *replLog) appendChoice(c sched.Choice) {
	l.mu.Lock()
	l.choices = append(l.choices, c)
	l.mu.Unlock()
	l.cond.Broadcast()
}

// appendRecord encodes and logs one committed record at lsn, folds it
// into the shadow store (via a decode round-trip, exercising the exact
// bytes a follower will see), and checkpoints on cadence.
func (l *replLog) appendRecord(lsn uint64, r *storage.Record) {
	enc := storage.EncodeRecord(nil, r)
	l.mu.Lock()
	if uint64(len(l.records))+1 != lsn {
		// The tee backend assigns contiguous LSNs from 1; a gap is an
		// internal invariant violation, not a runtime condition.
		l.failLocked(fmt.Errorf("repl: record LSN %d, log head %d", lsn, len(l.records)))
		l.mu.Unlock()
		l.cond.Broadcast()
		return
	}
	l.records = append(l.records, enc)
	dec, err := storage.DecodeRecord(enc)
	if err == nil {
		err = l.shadow.ApplyLogged(dec.Delta)
	}
	if err != nil {
		l.failLocked(fmt.Errorf("repl: shadow apply at LSN %d: %w", lsn, err))
	} else if l.every > 0 && lsn%uint64(l.every) == 0 {
		if snap, serr := snapshotBytes(l.shadow); serr == nil {
			l.checkpoints = append(l.checkpoints, checkpointEntry{lsn: lsn, snap: snap})
		} else {
			l.failLocked(fmt.Errorf("repl: checkpoint at LSN %d: %w", lsn, serr))
		}
	}
	l.mu.Unlock()
	l.cond.Broadcast()
}

func (l *replLog) failLocked(err error) {
	if l.failure == nil {
		l.failure = err
	}
}

// finish publishes the stream terminator and wakes every streamer.
func (l *replLog) finish(f *fin) {
	l.mu.Lock()
	if l.failure != nil && f.errMsg == "" {
		f.errMsg = l.failure.Error()
	}
	if l.fin == nil {
		l.fin = f
	}
	l.mu.Unlock()
	l.cond.Broadcast()
}

// close wakes all streamers for teardown.
func (l *replLog) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

func (l *replLog) head() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(len(l.records))
}

func (l *replLog) finSnapshot() *fin {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fin
}

// checkpointFor returns the newest checkpoint, for apply-mode
// bootstrap. (Entry 0 always exists.)
func (l *replLog) latestCheckpoint() checkpointEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.checkpoints[len(l.checkpoints)-1]
}

// Streaming batch bounds. Records are raw bytes inside a JSON frame
// (base64, ~4/3 overhead) under the 1 MiB frame cap; choices are two
// small ints each.
const (
	maxChoiceBatch      = 4096
	maxRecordBatch      = 256
	maxRecordBatchBytes = 256 << 10
)

// news is one streaming step: the batches to ship next, and stream
// state. choices start at choice index nextChoice; records at LSN
// nextLSN+1.
type news struct {
	choices []sched.Choice
	records [][]byte
	fin     *fin // non-nil once everything up to fin has been handed out
	closed  bool
}

// waitNews blocks until there is something to ship past the given
// positions (or fin/teardown) and returns copies safe to use outside
// the lock. fin is only reported once the caller has consumed the
// complete stream, so a streamer can send it and stop.
func (l *replLog) waitNews(nextChoice int, nextLSN uint64) news {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.closed {
			return news{closed: true}
		}
		var out news
		if nextChoice < len(l.choices) {
			end := len(l.choices)
			if end-nextChoice > maxChoiceBatch {
				end = nextChoice + maxChoiceBatch
			}
			out.choices = append([]sched.Choice(nil), l.choices[nextChoice:end]...)
		}
		if nextLSN < uint64(len(l.records)) {
			total := 0
			for i := nextLSN; i < uint64(len(l.records)); i++ {
				rb := l.records[i]
				if len(out.records) >= maxRecordBatch ||
					(len(out.records) > 0 && total+len(rb) > maxRecordBatchBytes) {
					break
				}
				out.records = append(out.records, rb)
				total += len(rb)
			}
		}
		if out.choices != nil || out.records != nil {
			return out
		}
		if l.fin != nil &&
			nextChoice >= len(l.choices) && nextLSN >= uint64(len(l.records)) {
			out.fin = l.fin
			return out
		}
		l.cond.Wait()
	}
}

// teeBackend wraps the primary's real backend: every append is
// mirrored into the replication log after the inner backend assigns
// the LSN. It deliberately does NOT forward the AutoCheckpointer
// extension — background checkpoints must not perturb the record
// stream the followers compare against.
type teeBackend struct {
	inner storage.Backend
	log   *replLog
}

func (t *teeBackend) Append(r *storage.Record) (storage.LSN, error) {
	lsn, err := t.inner.Append(r)
	if err == nil {
		t.log.appendRecord(uint64(lsn), r)
	}
	return lsn, err
}

func (t *teeBackend) Sync() error                         { return t.inner.Sync() }
func (t *teeBackend) Checkpoint(s *wm.Store) error        { return t.inner.Checkpoint(s) }
func (t *teeBackend) Recover() (*storage.Recovery, error) { return t.inner.Recover() }
func (t *teeBackend) Close() error                        { return t.inner.Close() }
