// Package repl is deterministic schedule-shipping replication: a
// primary executes one engine run under the internal/sched controller
// and streams the *schedule* — the recorded scheduling choices
// interleaved with the storage Records the committer appends — to N
// follower replicas over the PR 7 wire protocol. Because a controlled
// run is a pure function of its choice sequence, a follower that
// replays the choices re-executes the run bit for bit: every commit
// record it produces must byte-match the shipped one, its final
// metrics snapshot must byte-match the primary's, and its store must
// hash identically. Any mismatch is divergence — the replica counts
// it, halts its engine, and refuses reads rather than serving stale
// state.
//
// Two follower modes exist (see docs/REPLICATION.md):
//
//   - replay: run the engine under a sched.Stream policy fed from the
//     network, byte-comparing records as they are produced. This is
//     the full-fidelity replica: it ends up with the engine's store,
//     its metrics, and an admissible trace of its own.
//   - apply: bootstrap from a shipped checkpoint snapshot and fold the
//     record suffix into a store with wm.ApplyLogged, checking the
//     commit tail with engine.CheckTraceFrom — the cheap catch-up path
//     for late joiners and re-seeding.
//
// Followers ack applied LSNs; the primary tracks per-follower progress
// in a lag gauge and resumes a reconnecting follower from the exact
// choice/LSN position it reports. The replication log lives in memory
// on the primary for the duration of the run (plus periodic shadow
// checkpoints for apply-mode bootstrap), so any follower can join or
// rejoin at any point, including after the run finished.
package repl

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"pdps/internal/detsched"
	"pdps/internal/engine"
	"pdps/internal/lock"
	"pdps/internal/wm"
)

// RunConfig is the wire-shippable run configuration: everything a
// follower needs, besides the program source and the choice stream, to
// re-execute the primary's run bit for bit. String fields use the
// lock/engine policies' String() names so the JSON is self-describing.
type RunConfig struct {
	// Scheme is the locking scheme: "2pl" or "rcrawa" (default).
	Scheme string `json:"scheme,omitempty"`
	// Np is the worker count; 0 means 2 (the detsched default).
	Np int `json:"np,omitempty"`
	// Deadlock is "detect" (default) or "wound-wait".
	Deadlock string `json:"deadlock,omitempty"`
	// Abort is "always" (default) or "reevaluate".
	Abort string `json:"abort,omitempty"`
	// MaxFirings bounds commits; 0 means the engine default.
	MaxFirings int `json:"max_firings,omitempty"`
	// MaxDecisions bounds scheduling decisions; 0 means 1<<16. Primary
	// and follower must share the bound or they would diverge on it.
	MaxDecisions int `json:"max_decisions,omitempty"`
	// Seed drives the primary's random-walk policy. Followers never
	// consult it — their schedule arrives over the wire — but it is
	// shipped so a replica can be re-run standalone for debugging.
	Seed int64 `json:"seed,omitempty"`
}

// detConfig lowers the wire form to a detsched.Config (without the
// storage backend, which each side wires separately).
func (c RunConfig) detConfig() (detsched.Config, error) {
	out := detsched.Config{
		Np:           c.Np,
		MaxFirings:   c.MaxFirings,
		MaxDecisions: c.MaxDecisions,
	}
	switch c.Scheme {
	case "", "rcrawa":
		out.Scheme = lock.SchemeRcRaWa
	case "2pl":
		out.Scheme = lock.Scheme2PL
	default:
		return out, fmt.Errorf("repl: unknown scheme %q", c.Scheme)
	}
	switch c.Deadlock {
	case "", "detect":
		out.Deadlock = lock.DeadlockDetect
	case "wound-wait":
		out.Deadlock = lock.DeadlockWoundWait
	default:
		return out, fmt.Errorf("repl: unknown deadlock policy %q", c.Deadlock)
	}
	switch c.Abort {
	case "", "always":
		out.Abort = engine.AbortAlways
	case "reevaluate":
		out.Abort = engine.AbortReevaluate
	default:
		return out, fmt.Errorf("repl: unknown abort policy %q", c.Abort)
	}
	return out, nil
}

// fin is the stream terminator: the primary run's totals and the
// oracle values a follower must reproduce.
type fin struct {
	nChoices  int
	nRecords  uint64
	metrics   []byte // obs.Snapshot.MarshalIndent bytes
	storeHash string // hex sha256 of the shadow store's snapshot
	fired     int
	halted    bool
	quiescent bool
	errMsg    string // non-empty when the primary run itself failed
}

// storeHash canonicalises a store to the hex SHA-256 of its snapshot
// encoding. Both sides hash stores built the same way (initial working
// memory inserted in program order, then ApplyLogged per record), so
// equal hashes mean byte-identical snapshot encodings, counters
// included.
func storeHash(s *wm.Store) (string, error) {
	var b bytes.Buffer
	if err := s.WriteSnapshot(&b); err != nil {
		return "", err
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// canonMetrics compacts a metrics-snapshot JSON document.
// encoding/json compacts RawMessage values when a frame is marshaled,
// so the byte-identity comparison must be over the compact form — the
// only whitespace-independent encoding both sides can reproduce.
func canonMetrics(b []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// quiescentOf mirrors the server's run-summary convention: a run is
// quiescent when it drained the conflict set rather than being stopped
// by halt or the firing limit.
func quiescentOf(r engine.Result) bool {
	return !r.Halted && !r.LimitHit
}

// waitUntil polls cond every few milliseconds until it reports true or
// the timeout expires. Replication progress is driven by network
// readers and engine tasks; tests and drain paths only need a cheap
// level-triggered wait.
func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}
