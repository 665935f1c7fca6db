package engine

import (
	"sync"

	"pdps/internal/match"
	"pdps/internal/obs"
	"pdps/internal/trace"
	"pdps/internal/wm"
)

// Static is the multiple-thread static approach (Section 4.1): before
// each execute phase, the candidate instantiations are partitioned by
// the pre-computed rule-interference relation, and one group of
// pairwise non-interfering productions fires in parallel. Theorem 1:
// because members update non-overlapping parts of working memory, the
// batch is equivalent to firing its members in any serial order.
type Static struct {
	rt *runtime
	// im is the pairwise rule-interference relation, shared with the
	// hybrid elision path of the Parallel engine.
	im *match.InterferenceMatrix
}

// NewStatic builds a static-partition parallel engine. The
// rule-interference matrix — the paper's pre-execution analysis — is
// constructed up front but materialises rows lazily, so large
// generated programs (cmd/psgen) pay O(n) instead of O(n²) when only
// a few rules ever activate together.
func NewStatic(p Program, opts Options) (*Static, error) {
	rt, err := newRuntime(p, opts)
	if err != nil {
		return nil, err
	}
	return &Static{rt: rt, im: match.NewInterferenceMatrix(p.Rules)}, nil
}

// Store exposes the engine's working memory.
func (e *Static) Store() *wm.Store { return e.rt.store }

// Metrics returns the engine's metrics registry.
func (e *Static) Metrics() *obs.Registry { return e.rt.opts.Metrics }

// Interferes reports the cached interference relation between two
// rules (exposed for tests).
func (e *Static) Interferes(a, b string) bool { return e.im.Interferes(a, b) }

// Run executes batched cycles until no unfired instantiation remains,
// a halt fires, or MaxFirings is hit.
func (e *Static) Run() (Result, error) {
	rt := e.rt
	for {
		fired := rt.firings()
		if fired >= rt.opts.MaxFirings {
			rt.limit = true
			return rt.result(), nil
		}
		cands := rt.candidates()
		if len(cands) == 0 {
			return rt.result(), nil
		}
		rt.met.cycleInc()
		batch := e.batch(cands)
		if fired+len(batch) > rt.opts.MaxFirings {
			batch = batch[:rt.opts.MaxFirings-fired]
		}

		// Execute the batch in parallel, each firing staging into its
		// own transaction. Np bounds worker concurrency.
		txs := make([]*wm.Txn, len(batch))
		halts := make([]bool, len(batch))
		errs := make([]error, len(batch))
		sem := make(chan struct{}, rt.opts.Np)
		var wg sync.WaitGroup
		for i, in := range batch {
			wg.Add(1)
			go func(i int, in *match.Instantiation) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				rt.opts.Log.Append(trace.Event{Kind: trace.KindFire, Rule: in.Rule.Name, Inst: in.Key()})
				if d := rt.opts.RuleDelay[in.Rule.Name]; d > 0 {
					rt.opts.Clock.Sleep(d)
				}
				tx := rt.store.Begin()
				halts[i], errs[i] = match.ExecuteActions(in, tx)
				txs[i] = tx
			}(i, in)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				for _, tx := range txs {
					if tx != nil {
						tx.Abort()
					}
				}
				return rt.result(), err
			}
		}

		// Commit sequentially in batch order: by Theorem 1 this is
		// equivalent to any other serial order of the batch. The batch
		// is also the fsync group — one sync makes it durable.
		for i, in := range batch {
			if err := rt.commit(in, txs[i], 0, halts[i]); err != nil {
				rt.syncStorage()
				return rt.result(), err
			}
		}
		rt.syncStorage()
		if rt.halted || rt.err != nil {
			return rt.result(), rt.err
		}
	}
}

// batch greedily builds a set of candidates whose rules are pairwise
// non-interfering, seeded by the strategy's selection. As a runtime
// guard against the granularity problem the paper discusses (two
// attribute-disjoint modifies hitting the same tuple), members must
// also target disjoint WMEs.
func (e *Static) batch(cands []*match.Instantiation) []*match.Instantiation {
	seed := e.rt.opts.Strategy.Select(cands)
	batch := []*match.Instantiation{seed}
	writes := writeTargets(seed)
	for _, in := range cands {
		if in == seed {
			continue
		}
		ok := true
		for _, member := range batch {
			if e.im.Interferes(in.Rule.Name, member.Rule.Name) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		tw := writeTargets(in)
		for id := range tw {
			if writes[id] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		batch = append(batch, in)
		for id := range tw {
			writes[id] = true
		}
	}
	return batch
}

// writeTargets returns the IDs of the WMEs an instantiation will
// modify or remove.
func writeTargets(in *match.Instantiation) map[int64]bool {
	out := make(map[int64]bool)
	for _, a := range in.Rule.Actions {
		if a.Kind == match.ActModify || a.Kind == match.ActRemove {
			out[in.WMEs[a.CE].ID] = true
		}
	}
	return out
}
