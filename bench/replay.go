package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"pdps/internal/cr"
	"pdps/internal/lock"
	"pdps/internal/match"
	"pdps/internal/rete"
	"pdps/internal/server"
	"pdps/internal/storage"
	"pdps/internal/trace"
	"pdps/internal/wm"
)

// sequence is a captured execution: the rules, working memory before
// the first record, and every storage record in commit order. A record
// with an empty Rule is an ingest (adds only); the others are firings.
// The layer replays re-execute exactly this sequence through one
// layer's public API alone, one goroutine, nothing contending.
type sequence struct {
	rules   []*match.Rule
	initial []*wm.WME
	records []*storage.Record
	// serial marks a recognize-act engine (Session, Single), which
	// lists and selects from the whole conflict set before every
	// firing; the Parallel committer drains the change journal instead
	// and selects nothing.
	serial bool
}

// layerTimes is the replayed cost of each layer over one or more
// sequences, in nanoseconds, with the work counts to divide by.
type layerTimes struct {
	firings, inserts, removes int

	reteInsert, reteRemove, conflictSet, crSelect time.Duration
	reteIngest                                    time.Duration // the part of reteInsert spent on ingest records
	wmApply, lockAcquire, traceAppend, eventsCopy time.Duration
	csSizeSum                                     int
}

func (lt *layerTimes) perFiring(d time.Duration) float64 {
	return ratio(float64(d), float64(lt.firings))
}

// replayMatch feeds the sequence's working-memory changes to a fresh
// Rete network and asks it for the conflict set before every firing,
// the way the engine's commit path and recognize step do.
func replayMatch(s *sequence, lt *layerTimes) error {
	net := rete.New()
	for _, r := range s.rules {
		if err := net.AddRule(r); err != nil {
			return err
		}
	}
	if !s.serial {
		net.TrackChanges(true)
	}
	for _, w := range s.initial {
		net.Insert(w)
	}
	for _, rec := range s.records {
		if rec.Rule != "" {
			t0 := time.Now()
			cs := net.ConflictSet()
			if s.serial {
				cands := cs.All()
				t1 := time.Now()
				lt.conflictSet += t1.Sub(t0)
				lt.csSizeSum += len(cands)
				if len(cands) > 0 {
					cr.LEX{}.Select(cands)
					lt.crSelect += time.Since(t1)
				}
			} else {
				lt.csSizeSum += cs.Len()
				cs.TakeChanges()
				lt.conflictSet += time.Since(t0)
			}
		}
		for _, w := range rec.Delta.Removes {
			t0 := time.Now()
			net.Remove(w)
			lt.reteRemove += time.Since(t0)
			lt.removes++
		}
		for _, w := range rec.Delta.Adds {
			t0 := time.Now()
			net.Insert(w)
			d := time.Since(t0)
			lt.reteInsert += d
			if rec.Rule == "" {
				lt.reteIngest += d
			}
			lt.inserts++
		}
	}
	return nil
}

// replayWM applies every firing's delta to a fresh store.
func replayWM(s *sequence, lt *layerTimes) error {
	store := wm.NewStore()
	if err := store.ApplyLogged(&wm.Delta{Adds: s.initial}); err != nil {
		return err
	}
	for _, rec := range s.records {
		if rec.Rule == "" {
			if err := store.ApplyLogged(rec.Delta); err != nil {
				return err
			}
			continue
		}
		t0 := time.Now()
		err := store.ApplyLogged(rec.Delta)
		lt.wmApply += time.Since(t0)
		if err != nil {
			return err
		}
	}
	return nil
}

// matchedIDs parses the WME identities out of an instantiation key
// ("rule|id@tag|id@tag").
func matchedIDs(inst string) []int64 {
	parts := strings.Split(inst, "|")
	ids := make([]int64, 0, len(parts))
	for _, p := range parts[1:] {
		if at := strings.IndexByte(p, '@'); at > 0 {
			if id, err := strconv.ParseInt(p[:at], 10, 64); err == nil {
				ids = append(ids, id)
			}
		}
	}
	return ids
}

// replayLock takes each firing's locks on a manager nobody else uses:
// Rc on every matched tuple, Wa on every tuple written and on the
// class of every tuple made, then releases them.
func replayLock(s *sequence, lt *layerTimes) error {
	lm := lock.NewManager(lock.SchemeRcRaWa)
	class := make(map[int64]string)
	for _, w := range s.initial {
		class[w.ID] = w.Class
	}
	for _, rec := range s.records {
		if rec.Rule != "" {
			ids := matchedIDs(rec.Inst)
			t0 := time.Now()
			txn := lm.Begin()
			for _, id := range ids {
				if err := lm.Acquire(txn, lock.Resource{Class: class[id], ID: id}, lock.Rc); err != nil {
					return err
				}
			}
			for _, w := range rec.Delta.Removes {
				if err := lm.Acquire(txn, lock.Resource{Class: class[w.ID], ID: w.ID}, lock.Wa); err != nil {
					return err
				}
			}
			for _, w := range rec.Delta.Adds {
				if _, known := class[w.ID]; !known {
					if err := lm.Acquire(txn, lock.Relation(w.Class), lock.Wa); err != nil {
						return err
					}
				}
			}
			lm.End(txn)
			lt.lockAcquire += time.Since(t0)
		}
		for _, w := range rec.Delta.Adds {
			class[w.ID] = w.Class
		}
	}
	return nil
}

// replayTrace appends every firing's commit event to a fresh log. With
// copyEvents it also snapshots the whole log after each append, which
// is what the service does once per step (session.sawHalt) at the
// session's current log length.
func replayTrace(s *sequence, copyEvents bool, lt *layerTimes) {
	log := trace.New()
	for _, rec := range s.records {
		if rec.Rule == "" {
			continue
		}
		ev := trace.Event{Kind: trace.KindCommit, Rule: rec.Rule, Inst: rec.Inst, WMEs: rec.WMEs}
		t0 := time.Now()
		log.Append(ev)
		lt.traceAppend += time.Since(t0)
		if copyEvents {
			t0 = time.Now()
			_ = log.Events()
			lt.eventsCopy += time.Since(t0)
		}
	}
}

// replayLayers runs every layer replay over the sequence.
func replayLayers(s *sequence, copyEvents bool, lt *layerTimes) error {
	for _, rec := range s.records {
		if rec.Rule != "" {
			lt.firings++
		}
	}
	if err := replayMatch(s, lt); err != nil {
		return fmt.Errorf("match replay: %w", err)
	}
	if err := replayWM(s, lt); err != nil {
		return fmt.Errorf("wm replay: %w", err)
	}
	if !s.serial {
		if err := replayLock(s, lt); err != nil {
			return fmt.Errorf("lock replay: %w", err)
		}
	}
	replayTrace(s, copyEvents, lt)
	return nil
}

// replayCodec pushes one cycle's frames through the wire codec over a
// bytes.Buffer: the assert request and its ack, the run request, the
// streamed trace batch and the run summary — encode, frame, unframe,
// decode, both directions. It returns the mean ns per cycle.
func replayCodec(session string, tuples []string, events []server.TraceEvent, reps int) (float64, error) {
	ids := make([]int64, len(tuples))
	for i := range ids {
		ids[i] = int64(i + 1)
	}
	reqs := []*server.Request{
		{Type: server.ReqAssert, ID: 1, Session: session, WMEs: tuples},
		{Type: server.ReqRun, ID: 2, Session: session},
	}
	resps := []*server.Response{
		{Type: server.RespOK, ID: 1, Session: session, IDs: ids},
		{Type: server.RespTrace, ID: 2, Session: session, More: true, Events: events},
		{Type: server.RespRun, ID: 2, Session: session, Fired: len(events), Quiescent: true},
	}
	var buf bytes.Buffer
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		for _, q := range reqs {
			payload, err := server.EncodeRequest(q)
			if err != nil {
				return 0, err
			}
			buf.Reset()
			if err := server.WriteFrame(&buf, payload); err != nil {
				return 0, err
			}
			got, err := server.ReadFrame(&buf, 0)
			if err != nil {
				return 0, err
			}
			if _, err := server.DecodeRequest(got); err != nil {
				return 0, err
			}
		}
		for _, p := range resps {
			payload, err := server.EncodeResponse(p)
			if err != nil {
				return 0, err
			}
			buf.Reset()
			if err := server.WriteFrame(&buf, payload); err != nil {
				return 0, err
			}
			got, err := server.ReadFrame(&buf, 0)
			if err != nil {
				return 0, err
			}
			if _, err := server.DecodeResponse(got); err != nil {
				return 0, err
			}
		}
	}
	return ratio(float64(time.Since(t0)), float64(reps)), nil
}
