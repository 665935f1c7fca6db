// Package rete implements the Rete match algorithm (Forgy 1982), the
// incremental matcher the paper assumes for the match phase: alpha
// memories with shared constant tests, beta memories joined by
// variable-consistency tests, negative nodes for negated condition
// elements, and token-tree deletion so removals are as incremental as
// insertions. Structure follows Doorenbos's "Production Matching for
// Large Learning Systems" basic algorithm with hashed alpha and beta
// memories (see index.go), without unlinking.
package rete

import (
	"fmt"

	"pdps/internal/match"
	"pdps/internal/wm"
)

// token is one row of partial-match state: a chain of WMEs (one per
// condition element so far; nil at negative-CE levels).
type token struct {
	parent   *token
	w        *wm.WME
	node     interface{} // *memNode, *negNode or *prodNode owning this token
	children []*token

	// joinResults is used only for tokens owned by a negNode: the
	// WMEs currently matching the negated CE under this token.
	joinResults map[*wm.WME]bool

	// instKey is used only for tokens owned by a prodNode.
	instKey string
}

func (t *token) addChild(c *token) { t.children = append(t.children, c) }

func (t *token) removeChild(c *token) {
	for i, x := range t.children {
		if x == c {
			t.children = append(t.children[:i], t.children[i+1:]...)
			return
		}
	}
}

// up walks n steps towards the root and returns that ancestor.
func (t *token) up(n int) *token {
	for ; n > 0; n-- {
		t = t.parent
	}
	return t
}

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
	items    []*token
	children []tokenSink
}

func (m *memNode) validTokens() []*token { return m.items }

func (m *memNode) receive(parent *token, w *wm.WME) {
	t := &token{parent: parent, w: w, node: m}
	parent.addChild(t)
	m.items = append(m.items, t)
	m.net.registerToken(t)
	for _, c := range m.children {
		c.onToken(t)
	}
}

func (m *memNode) removeToken(t *token) {
	for i, x := range m.items {
		if x == t {
			m.items = append(m.items[:i], m.items[i+1:]...)
			break
		}
	}
	for _, c := range m.children {
		c.onTokenGone(t)
	}
}

// betaSource is the upstream of a join node: a beta memory (all tokens
// valid) or a negative node (tokens with no join results are valid).
type betaSource interface {
	validTokens() []*token
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
	left  map[string][]*token  // parent tokens by token-side key
	right map[string][]*wm.WME // alpha WMEs by WME-side key
	kbuf  []byte               // reusable key scratch; activations are single-threaded per network
}

// newJoinNode builds a join with empty indexes when it is indexable.
// Rules are compiled before the first WME arrives, so the alpha side
// is empty; the compiler left-activates the join with every existing
// upstream token, which fills the token index through onToken.
func newJoinNode(net *Network, parent betaSource, amem *alphaMem, tests []joinTest, out pairSink) *joinNode {
	j := &joinNode{net: net, parent: parent, amem: amem, tests: tests, out: out, eq: eqSubset(tests)}
	if len(j.eq) > 0 {
		j.left = make(map[string][]*token)
		j.right = make(map[string][]*wm.WME)
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
	key, ok := tokenIndexKey(j.eq, t, j.kbuf[:0])
	j.kbuf = key
	if !ok {
		// A tested attribute is missing up the chain: no WME can ever
		// join with this token, so it is not indexed at all.
		return
	}
	j.left[string(key)] = append(j.left[string(key)], t)
	bucket := j.right[string(key)]
	j.net.metProbe(len(bucket))
	for _, w := range bucket {
		if runTests(j.tests, t, w) {
			j.out.receive(t, w)
		}
	}
}

func (j *joinNode) onTokenGone(t *token) {
	if len(j.eq) == 0 {
		return
	}
	key, ok := tokenIndexKey(j.eq, t, j.kbuf[:0])
	j.kbuf = key
	if ok {
		tokenBucketRemove(j.left, key, t)
	}
}

func (j *joinNode) rightActivate(w *wm.WME) {
	if len(j.eq) == 0 {
		vts := j.parent.validTokens()
		j.net.metScan(len(vts))
		for _, t := range vts {
			if runTests(j.tests, t, w) {
				j.out.receive(t, w)
			}
		}
		return
	}
	key, ok := wmeIndexKey(j.eq, w, j.kbuf[:0])
	j.kbuf = key
	if !ok {
		return
	}
	j.right[string(key)] = append(j.right[string(key)], w)
	bucket := j.left[string(key)]
	j.net.metProbe(len(bucket))
	for _, t := range bucket {
		if runTests(j.tests, t, w) {
			j.out.receive(t, w)
		}
	}
}

func (j *joinNode) rightRetract(w *wm.WME) {
	if len(j.eq) == 0 {
		return
	}
	key, ok := wmeIndexKey(j.eq, w, j.kbuf[:0])
	j.kbuf = key
	if ok {
		wmeBucketRemove(j.right, key, w)
	}
}

// negNode implements a negated condition element. It owns one token
// per upstream token; a token is valid (propagates downstream) while
// its join-result set is empty. Like joinNode it keeps hash indexes
// over both sides when its tests include an equality test; the token
// side indexes every owned token (not just the valid ones), because a
// blocked token still collects further join results.
type negNode struct {
	net      *Network
	amem     *alphaMem
	tests    []joinTest
	items    []*token
	children []tokenSink

	eq    []joinTest
	left  map[string][]*token  // owned tokens by parent-chain key
	right map[string][]*wm.WME // alpha WMEs by WME-side key
	kbuf  []byte               // reusable key scratch; activations are single-threaded per network
}

// newNegNode builds a negative node with empty indexes when it is
// indexable; like a join, it is compiled before the first WME arrives.
func newNegNode(net *Network, amem *alphaMem, tests []joinTest) *negNode {
	n := &negNode{net: net, amem: amem, tests: tests, eq: eqSubset(tests)}
	if len(n.eq) > 0 {
		n.left = make(map[string][]*token)
		n.right = make(map[string][]*wm.WME)
	}
	return n
}

func (n *negNode) validTokens() []*token {
	var out []*token
	for _, t := range n.items {
		if len(t.joinResults) == 0 {
			out = append(out, t)
		}
	}
	return out
}

func (n *negNode) addChildSink(s tokenSink) { n.children = append(n.children, s) }

func (n *negNode) onToken(parent *token) {
	t := &token{parent: parent, node: n, joinResults: make(map[*wm.WME]bool)}
	parent.addChild(t)
	n.items = append(n.items, t)
	if len(n.eq) > 0 {
		// Negative-node tests reference the parent chain: levelsUp in
		// compiled tests is relative to the upstream token.
		key, ok := tokenIndexKey(n.eq, parent, n.kbuf[:0])
		n.kbuf = key
		if ok {
			n.left[string(key)] = append(n.left[string(key)], t)
			bucket := n.right[string(key)]
			n.net.metProbe(len(bucket))
			for _, w := range bucket {
				if runTests(n.tests, parent, w) {
					t.joinResults[w] = true
					n.net.registerJoinResult(t, w)
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
				t.joinResults[w] = true
				n.net.registerJoinResult(t, w)
			}
		}
	}
	if len(t.joinResults) == 0 {
		for _, c := range n.children {
			c.onToken(t)
		}
	}
}

func (n *negNode) rightActivate(w *wm.WME) {
	var candidates []*token
	if len(n.eq) > 0 {
		key, ok := wmeIndexKey(n.eq, w, n.kbuf[:0])
		n.kbuf = key
		if !ok {
			return
		}
		n.right[string(key)] = append(n.right[string(key)], w)
		candidates = n.left[string(key)]
		n.net.metProbe(len(candidates))
	} else {
		candidates = n.items
		n.net.metScan(len(candidates))
	}
	for _, t := range candidates {
		if !runTests(n.tests, t.parent, w) {
			continue
		}
		wasEmpty := len(t.joinResults) == 0
		t.joinResults[w] = true
		n.net.registerJoinResult(t, w)
		if wasEmpty {
			// The token just became invalid: retract everything that
			// was derived from it and unhook it from indexed children.
			n.net.deleteDescendants(t)
			for _, c := range n.children {
				c.onTokenGone(t)
			}
		}
	}
}

func (n *negNode) rightRetract(w *wm.WME) {
	if len(n.eq) == 0 {
		return
	}
	key, ok := wmeIndexKey(n.eq, w, n.kbuf[:0])
	n.kbuf = key
	if ok {
		wmeBucketRemove(n.right, key, w)
	}
}

// onTokenGone is the upstream-retraction notification. The negNode's
// own token for the gone upstream token is deleted through the token
// tree (its removeToken maintains the index), so nothing remains here.
func (n *negNode) onTokenGone(t *token) {}

func (n *negNode) removeToken(t *token) {
	for i, x := range n.items {
		if x == t {
			n.items = append(n.items[:i], n.items[i+1:]...)
			break
		}
	}
	if len(n.eq) > 0 && t.parent != nil {
		key, ok := tokenIndexKey(n.eq, t.parent, n.kbuf[:0])
		n.kbuf = key
		if ok {
			tokenBucketRemove(n.left, key, t)
		}
	}
	if len(t.joinResults) == 0 {
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
	t := &token{parent: parent, w: w, node: p}
	parent.addChild(t)
	p.net.registerToken(t)
	p.activateToken(t, false)
}

func (p *prodNode) onToken(parent *token) {
	t := &token{parent: parent, node: p}
	parent.addChild(t)
	p.activateToken(t, true)
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
	chain := make([]*token, p.numLevels)
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
	in := &match.Instantiation{Rule: p.rule, WMEs: wmes, Bindings: b}
	t.instKey = in.Key()
	p.net.cs.Add(in)
}

// Network is the Rete matcher. It implements match.Matcher. Its rules
// are fixed before working memory arrives: AddRule after the first
// Insert is refused, so no node is ever compiled against resident
// WMEs.
type Network struct {
	alphaByKey  map[string]*alphaMem
	top         *memNode
	dummy       *token
	cs          *match.ConflictSet
	populated   bool // set by the first Insert
	tokensByWME map[*wm.WME][]*token
	jrOwners    map[*wm.WME][]*token // tokens whose joinResults include the WME

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
		alphaByKey:  make(map[string]*alphaMem),
		cs:          match.NewConflictSet(),
		tokensByWME: make(map[*wm.WME][]*token),
		jrOwners:    make(map[*wm.WME][]*token),
		betaLevels:  make(map[string]*betaLevel),
		chains:      make(map[string]*ruleChain),
		disc:        make(map[string]*classDisc),
	}
	n.top = &memNode{net: n}
	n.dummy = &token{node: n.top}
	n.top.items = []*token{n.dummy}
	return n
}

func (n *Network) registerToken(t *token) {
	if t.w != nil {
		n.tokensByWME[t.w] = append(n.tokensByWME[t.w], t)
	}
}

func (n *Network) registerJoinResult(owner *token, w *wm.WME) {
	n.jrOwners[w] = append(n.jrOwners[w], owner)
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
	// Delete the token trees rooted at tokens that matched w.
	for _, t := range append([]*token(nil), n.tokensByWME[w]...) {
		n.deleteToken(t)
	}
	delete(n.tokensByWME, w)
	// Unblock negative-node tokens whose only join results included w.
	owners := append([]*token(nil), n.jrOwners[w]...)
	delete(n.jrOwners, w)
	for _, owner := range owners {
		if owner.joinResults == nil || !owner.joinResults[w] {
			continue // owner was itself deleted above
		}
		delete(owner.joinResults, w)
		if len(owner.joinResults) == 0 {
			neg := owner.node.(*negNode)
			for _, c := range neg.children {
				c.onToken(owner)
			}
		}
	}
}

// deleteDescendants removes everything derived from t but keeps t.
func (n *Network) deleteDescendants(t *token) {
	for len(t.children) > 0 {
		n.deleteToken(t.children[len(t.children)-1])
	}
}

// deleteToken removes t and its whole subtree from the network.
func (n *Network) deleteToken(t *token) {
	n.deleteDescendants(t)
	switch node := t.node.(type) {
	case *memNode:
		node.removeToken(t)
	case *negNode:
		node.removeToken(t)
		for w := range t.joinResults {
			n.unregisterJoinResult(t, w)
		}
		t.joinResults = nil
	case *prodNode:
		n.cs.Remove(t.instKey)
	}
	if t.w != nil {
		n.unregisterTokenWME(t)
	}
	if t.parent != nil {
		t.parent.removeChild(t)
	}
}

func (n *Network) unregisterTokenWME(t *token) {
	list := n.tokensByWME[t.w]
	for i, x := range list {
		if x == t {
			n.tokensByWME[t.w] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

func (n *Network) unregisterJoinResult(owner *token, w *wm.WME) {
	list := n.jrOwners[w]
	for i, x := range list {
		if x == owner {
			n.jrOwners[w] = append(list[:i], list[i+1:]...)
			return
		}
	}
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
