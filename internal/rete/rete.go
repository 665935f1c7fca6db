// Package rete implements the Rete match algorithm (Forgy 1982), the
// incremental matcher the paper assumes for the match phase: alpha
// memories with shared constant tests, beta memories joined by
// variable-consistency tests, negative nodes for negated condition
// elements, and token-tree deletion so removals are as incremental as
// insertions. Structure follows Doorenbos's "Production Matching for
// Large Learning Systems" basic algorithm with hashed alpha and beta
// memories (index.go, buckets keyed by a 64-bit hash), without
// unlinking. Tokens and negative-node join results come from
// per-network slabs and sit on intrusive lists — a token's children,
// its memory's items, its WME's tokens (token.go) — so matching
// allocates only the instantiations it emits once the slabs and
// indexes have grown.
package rete

import (
	"fmt"

	"pdps/internal/match"
	"pdps/internal/wm"
)

// tokenSink consumes completed tokens of the previous level (left
// activation): join nodes, negative nodes, and production nodes (when
// the last condition element is negated). onTokenGone retracts a token
// previously delivered via onToken so indexed joins can unhook it; it
// fires after the token's own descendants have been deleted, so sinks
// that keep no index of upstream tokens ignore it.
type tokenSink interface {
	onToken(t *token)
	onTokenGone(t *token)
}

// pairSink consumes (parent token, matching WME) pairs emitted by join
// nodes: beta memories and production nodes.
type pairSink interface {
	receive(parent *token, w *wm.WME)
}

// alphaSink is right-activated when a WME enters an alpha memory and
// right-retracted when it leaves, so indexed nodes can unhook it.
type alphaSink interface {
	rightActivate(w *wm.WME)
	rightRetract(w *wm.WME)
}

// joinTest compares an attribute of the candidate WME against an
// attribute of an earlier condition element's WME in the token chain.
type joinTest struct {
	op        match.Op
	ownAttr   string
	levelsUp  int // 0 = the join's parent token's own WME
	otherAttr string
}

func runTests(tests []joinTest, parent *token, w *wm.WME) bool {
	for _, jt := range tests {
		other := parent.up(jt.levelsUp).w
		if other == nil {
			return false
		}
		if !w.HasAttr(jt.ownAttr) || !other.HasAttr(jt.otherAttr) {
			return false
		}
		if !jt.op.Eval(w.Attr(jt.ownAttr), other.Attr(jt.otherAttr)) {
			return false
		}
	}
	return true
}

// alphaMem holds the WMEs passing one constant-test pattern. Alpha
// memories are shared between rules with identical patterns; the
// class's discrimination network (alpha.go) routes WMEs into them.
type alphaMem struct {
	key        string
	class      string
	items      map[*wm.WME]bool
	successors []alphaSink
}

// memNode is a beta memory: it stores the tokens of one positive
// condition-element level.
type memNode struct {
	net      *Network
	items    *token // oldest first
	children []tokenSink
}

func (m *memNode) firstToken() *token { return m.items }

func (m *memNode) receive(parent *token, w *wm.WME) {
	t := m.net.newToken(parent, w, m)
	pushBack(&m.items, t, (*token).items)
	for _, c := range m.children {
		c.onToken(t)
	}
}

func (m *memNode) removeToken(t *token) {
	unlink(&m.items, t, (*token).items)
	for _, c := range m.children {
		c.onTokenGone(t)
	}
}

// betaSource is the upstream of a join node: a beta memory (all tokens
// valid) or a negative node (tokens with no join results are valid).
// Its item list is walked from firstToken with nextValid.
type betaSource interface {
	firstToken() *token
	addChildSink(s tokenSink)
}

func (m *memNode) addChildSink(s tokenSink) { m.children = append(m.children, s) }

// joinNode joins its parent's tokens with its alpha memory's WMEs.
// When the join has equality tests (eq non-empty) both sides are kept
// in hash indexes bucketed by the tested values, so each activation
// probes one bucket; otherwise it scans the opposite memory linearly.
type joinNode struct {
	net    *Network
	parent betaSource
	amem   *alphaMem
	tests  []joinTest
	out    pairSink

	eq    []joinTest
	left  map[uint64]bucket[*token]  // parent tokens by token-side key
	right map[uint64]bucket[*wm.WME] // alpha WMEs by WME-side key
}

// newJoinNode builds a join with empty indexes when it is indexable.
// Rules are compiled before the first WME arrives, so the alpha side
// is empty; the compiler left-activates the join with every existing
// upstream token, which fills the token index through onToken.
func newJoinNode(net *Network, parent betaSource, amem *alphaMem, tests []joinTest, out pairSink) *joinNode {
	j := &joinNode{net: net, parent: parent, amem: amem, tests: tests, out: out, eq: eqSubset(tests)}
	if len(j.eq) > 0 {
		j.left = make(map[uint64]bucket[*token])
		j.right = make(map[uint64]bucket[*wm.WME])
	}
	return j
}

func (j *joinNode) onToken(t *token) {
	if len(j.eq) == 0 {
		j.net.metScan(len(j.amem.items))
		for w := range j.amem.items {
			if runTests(j.tests, t, w) {
				j.out.receive(t, w)
			}
		}
		return
	}
	h, ok := j.net.keys.token(j.eq, t)
	if !ok {
		// A tested attribute is missing up the chain: no WME can ever
		// join with this token, so it is not indexed at all.
		return
	}
	bucketAdd(j.left, h, t)
	b := j.right[h]
	j.net.metProbe(b.len())
	for i := 0; i < b.len(); i++ {
		if w := b.at(i); runTests(j.tests, t, w) {
			j.out.receive(t, w)
		}
	}
}

func (j *joinNode) onTokenGone(t *token) {
	if len(j.eq) == 0 {
		return
	}
	if h, ok := j.net.keys.token(j.eq, t); ok {
		bucketRemove(j.left, h, t)
	}
}

func (j *joinNode) rightActivate(w *wm.WME) {
	if len(j.eq) == 0 {
		scanned := 0
		for t := nextValid(j.parent.firstToken()); t != nil; t = nextValid(t.item.next) {
			scanned++
			if runTests(j.tests, t, w) {
				j.out.receive(t, w)
			}
		}
		j.net.metScan(scanned)
		return
	}
	h, ok := j.net.keys.wme(j.eq, w)
	if !ok {
		return
	}
	bucketAdd(j.right, h, w)
	b := j.left[h]
	j.net.metProbe(b.len())
	for i := 0; i < b.len(); i++ {
		if t := b.at(i); runTests(j.tests, t, w) {
			j.out.receive(t, w)
		}
	}
}

func (j *joinNode) rightRetract(w *wm.WME) {
	if len(j.eq) == 0 {
		return
	}
	if h, ok := j.net.keys.wme(j.eq, w); ok {
		bucketRemove(j.right, h, w)
	}
}

// negNode implements a negated condition element. It owns one token
// per upstream token; a token is valid (propagates downstream) while
// it has no join results. Like joinNode it keeps hash indexes
// over both sides when its tests include an equality test; the token
// side indexes every owned token (not just the valid ones), because a
// blocked token still collects further join results.
type negNode struct {
	net      *Network
	amem     *alphaMem
	tests    []joinTest
	items    *token // oldest first
	children []tokenSink

	eq    []joinTest
	left  map[uint64]bucket[*token]  // owned tokens by parent-chain key
	right map[uint64]bucket[*wm.WME] // alpha WMEs by WME-side key
}

// newNegNode builds a negative node with empty indexes when it is
// indexable; like a join, it is compiled before the first WME arrives.
func newNegNode(net *Network, amem *alphaMem, tests []joinTest) *negNode {
	n := &negNode{net: net, amem: amem, tests: tests, eq: eqSubset(tests)}
	if len(n.eq) > 0 {
		n.left = make(map[uint64]bucket[*token])
		n.right = make(map[uint64]bucket[*wm.WME])
	}
	return n
}

func (n *negNode) firstToken() *token { return n.items }

func (n *negNode) addChildSink(s tokenSink) { n.children = append(n.children, s) }

func (n *negNode) onToken(parent *token) {
	t := n.net.newToken(parent, nil, n)
	pushBack(&n.items, t, (*token).items)
	if len(n.eq) > 0 {
		// Negative-node tests reference the parent chain: levelsUp in
		// compiled tests is relative to the upstream token.
		if h, ok := n.net.keys.token(n.eq, parent); ok {
			bucketAdd(n.left, h, t)
			b := n.right[h]
			n.net.metProbe(b.len())
			for i := 0; i < b.len(); i++ {
				if w := b.at(i); runTests(n.tests, parent, w) {
					n.net.addJoinResult(t, w)
				}
			}
		}
		// !ok: a tested attribute is missing, so no WME can ever match
		// the negated CE under this token — it stays valid forever and
		// needs no index entry.
	} else {
		n.net.metScan(len(n.amem.items))
		for w := range n.amem.items {
			if runTests(n.tests, parent, w) {
				n.net.addJoinResult(t, w)
			}
		}
	}
	if t.jr == nil {
		for _, c := range n.children {
			c.onToken(t)
		}
	}
}

func (n *negNode) rightActivate(w *wm.WME) {
	if len(n.eq) == 0 {
		scanned := 0
		for t := n.items; t != nil; t = t.item.next {
			scanned++
			n.block(t, w)
		}
		n.net.metScan(scanned)
		return
	}
	h, ok := n.net.keys.wme(n.eq, w)
	if !ok {
		return
	}
	bucketAdd(n.right, h, w)
	b := n.left[h]
	n.net.metProbe(b.len())
	for i := 0; i < b.len(); i++ {
		n.block(b.at(i), w)
	}
}

// block records w as a join result of t if it matches the negated CE
// under t. If t was valid it no longer is: everything derived from it
// is retracted and indexed children unhook it.
func (n *negNode) block(t *token, w *wm.WME) {
	if !runTests(n.tests, t.parent, w) {
		return
	}
	wasValid := t.jr == nil
	n.net.addJoinResult(t, w)
	if wasValid {
		n.net.deleteDescendants(t)
		for _, c := range n.children {
			c.onTokenGone(t)
		}
	}
}

func (n *negNode) rightRetract(w *wm.WME) {
	if len(n.eq) == 0 {
		return
	}
	if h, ok := n.net.keys.wme(n.eq, w); ok {
		bucketRemove(n.right, h, w)
	}
}

// onTokenGone is the upstream-retraction notification. The negNode's
// own token for the gone upstream token is deleted through the token
// tree (its removeToken maintains the index), so nothing remains here.
func (n *negNode) onTokenGone(t *token) {}

func (n *negNode) removeToken(t *token) {
	unlink(&n.items, t, (*token).items)
	if len(n.eq) > 0 {
		if h, ok := n.net.keys.token(n.eq, t.parent); ok {
			bucketRemove(n.left, h, t)
		}
	}
	if t.jr == nil {
		// The token was valid, so indexed children hold it.
		for _, c := range n.children {
			c.onTokenGone(t)
		}
	}
}

// prodNode terminates a rule's chain and maintains its instantiations
// in the shared conflict set.
type prodNode struct {
	net       *Network
	rule      *match.Rule
	numLevels int
	// wmeOrder maps instantiation WME slots (the rule's positive CEs in
	// source order — action CE indices and instantiation keys depend on
	// that order) to chain plan levels.
	wmeOrder []int
	bindings map[string]bindingPos
	// viaToken is true when the last CE is negated: this node is
	// left-activated with the final token instead of a (token, WME) pair.
	viaToken bool
}

func (p *prodNode) receive(parent *token, w *wm.WME) {
	p.activateToken(p.net.newToken(parent, w, p), false)
}

func (p *prodNode) onToken(parent *token) {
	p.activateToken(p.net.newToken(parent, nil, p), true)
}

// onTokenGone is a no-op: the production node keeps no index of
// upstream tokens; its own tokens die through the token tree.
func (p *prodNode) onTokenGone(parent *token) {}

func (p *prodNode) activateToken(t *token, bookkeepingLevel bool) {
	// Collect the chain of CE-level tokens, oldest first.
	depth := p.numLevels
	if bookkeepingLevel {
		depth++ // the prod token itself is not a CE level
	}
	var buf [16]*token
	chain := buf[:0]
	if p.numLevels > len(buf) {
		chain = make([]*token, 0, p.numLevels)
	}
	chain = chain[:p.numLevels]
	cur := t
	for i := depth - 1; i >= 0; i-- {
		if i < p.numLevels {
			chain[i] = cur
		}
		cur = cur.parent
	}
	wmes := make([]*wm.WME, len(p.wmeOrder))
	for i, lvl := range p.wmeOrder {
		wmes[i] = chain[lvl].w
	}
	b := make(match.Bindings, len(p.bindings))
	for v, pos := range p.bindings {
		b[v] = chain[pos.level].w.Attr(pos.attr)
	}
	t.inst = &match.Instantiation{Rule: p.rule, WMEs: wmes, Bindings: b}
	p.net.cs.Add(t.inst)
}

// Network is the Rete matcher. It implements match.Matcher. Its rules
// are fixed before working memory arrives: AddRule after the first
// Insert is refused, so no node is ever compiled against resident
// WMEs.
type Network struct {
	alphaByKey map[string]*alphaMem
	top        *memNode
	cs         *match.ConflictSet
	populated  bool // set by the first Insert

	// tokens and results are the slabs behind every token and
	// negative-node join result; byWME heads each WME's lists of both
	// (token.go). keys is the bucket-key scratch (index.go).
	tokens  slab[token, *token]
	results slab[joinResult, *joinResult]
	byWME   map[*wm.WME]wmeRefs
	keys    keyBuf

	// disc holds each class's constant-test discrimination network
	// (alpha.go); amemScratch and akbuf are pooled assert-path scratch
	// (activations are single-threaded per network), so routing a WME
	// allocates nothing.
	disc        map[string]*classDisc
	amemScratch []*alphaMem
	akbuf       []byte

	betaLevels map[string]*betaLevel // shared beta prefixes by structural key
	chains     map[string]*ruleChain // compiled chain per rule

	met *netMetrics
}

// New returns an empty network with hashed memories, cost-based
// condition ordering and beta-prefix sharing.
func New() *Network {
	n := &Network{
		alphaByKey: make(map[string]*alphaMem),
		cs:         match.NewConflictSet(),
		byWME:      make(map[*wm.WME]wmeRefs),
		betaLevels: make(map[string]*betaLevel),
		chains:     make(map[string]*ruleChain),
		disc:       make(map[string]*classDisc),
	}
	n.top = &memNode{net: n}
	root := n.tokens.get()
	root.node = n.top
	pushBack(&n.top.items, root, (*token).items)
	return n
}

// ConflictSet returns the live conflict set.
func (n *Network) ConflictSet() *match.ConflictSet { return n.cs }

// TrackChanges enables membership journaling on the live conflict set,
// which this network maintains incrementally.
func (n *Network) TrackChanges(on bool) { n.cs.TrackChanges(on) }

// Insert adds a WME version to the network and propagates matches.
// The WME is routed through the discrimination network (alpha.go)
// into pooled scratch; membership lands in every matched memory before
// any successor activates, so a cascading activation that reads
// another alpha memory of the same class sees a consistent view. The
// caller inserts each version once, as the engines do: a version
// inserted twice is matched twice.
func (n *Network) Insert(w *wm.WME) {
	n.populated = true
	mems := n.routeWME(w, n.amemScratch[:0])
	for _, am := range mems {
		am.items[w] = true
	}
	for _, am := range mems {
		for _, s := range am.successors {
			s.rightActivate(w)
		}
	}
	n.amemScratch = mems[:0]
}

// Remove retracts a WME version previously inserted: tokens built on
// it are deleted, and negative-node tokens it was blocking may become
// valid again.
func (n *Network) Remove(w *wm.WME) {
	// WME versions are immutable, so re-routing reproduces exactly the
	// memories the insert matched.
	mems := n.routeWME(w, n.amemScratch[:0])
	for _, am := range mems {
		delete(am.items, w)
	}
	for _, am := range mems {
		for _, s := range am.successors {
			s.rightRetract(w)
		}
	}
	n.amemScratch = mems[:0]
	// Delete the token trees rooted at tokens that matched w, oldest
	// first. A tree may hold later entries of w's own list (a self-join
	// matches w at two levels); deleting them unlinks them, so popping
	// the head never meets a deleted token.
	for t := n.byWME[w].tok; t != nil; t = n.byWME[w].tok {
		n.deleteToken(t)
	}
	// Unblock negative-node tokens whose only join result was w, in the
	// order w blocked them. Tokens deleted above took their join
	// results with them.
	for r := n.byWME[w].jr; r != nil; r = n.byWME[w].jr {
		owner := r.owner
		n.dropJoinResult(r)
		if owner.jr == nil {
			for _, c := range owner.node.(*negNode).children {
				c.onToken(owner)
			}
		}
	}
}

// deleteDescendants removes everything derived from t but keeps t.
// The newest child goes first.
func (n *Network) deleteDescendants(t *token) {
	for t.child != nil {
		n.deleteToken(t.child)
	}
}

// deleteToken removes t and its whole subtree from the network and
// returns t to the slab.
func (n *Network) deleteToken(t *token) {
	n.deleteDescendants(t)
	switch node := t.node.(type) {
	case *memNode:
		node.removeToken(t)
	case *negNode:
		node.removeToken(t)
		for t.jr != nil {
			n.dropJoinResult(t.jr)
		}
	case *prodNode:
		n.cs.Remove(t.inst.Key())
	}
	n.freeToken(t)
}

// Stats reports network size for diagnostics.
type Stats struct {
	AlphaMems int
}

// Stats returns current network statistics.
func (n *Network) Stats() Stats {
	return Stats{AlphaMems: len(n.alphaByKey)}
}

var _ match.Matcher = (*Network)(nil)

// errorf is a tiny indirection so compile errors share a prefix.
func errorf(format string, args ...interface{}) error {
	return fmt.Errorf("rete: "+format, args...)
}
