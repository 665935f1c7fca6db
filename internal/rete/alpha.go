package rete

import (
	"sort"

	"pdps/internal/match"
	"pdps/internal/wm"
)

// This file implements the shared constant-test discrimination network
// (Doorenbos, "Production Matching for Large Learning Systems", §2.2):
// the alpha-network counterpart of the hashed beta memories in
// index.go. Instead of walking every alpha memory registered for a
// WME's class and re-evaluating each pattern's full predicate closure
// (O(rules × tests) per assert), an asserted or retracted WME is
// routed through a per-class tree of discrimination levels:
//
//   - hash layers: a pattern's plain `attr == const` equality tests
//     are canonically ordered and become successive bucket-map probes
//     — one probe per routed attribute the WME carries, however many
//     rules constrain it. The probe itself IS the test: the bucket
//     key encoding (appendValueKey) is injective up to wm.Value.Equal
//     for the routable kinds, so a hit means the equality holds and
//     is never re-evaluated. A miss prunes every pattern below the
//     bucket at once.
//   - residual test nodes: the pattern's remaining tests (non-eq
//     constants, disjunctions, intra-element tests, presence tests)
//     become a chain of single-test nodes in canonical order below
//     the hash layers.
//
// Nodes are structurally deduplicated by their position and test
// signature — the alpha analogue of the betaLevels prefix cache — so
// a test shared by many rules is evaluated once per WME. Every node
// counts the patterns whose path runs through it; the counts feed the
// sharing statistics (rete_alpha_shared, Topology, Plans). Rules are
// fixed once working memory is populated, so the tree only grows.
//
// Determinism: each level's eqAttrs is kept sorted, residual children
// are insertion-ordered (rule-add order), and routing never iterates
// a Go map — the activation order a WME produces is a function of the
// program, exactly like the hashed join indexes.

// residTest is one residual alpha test: a constant or disjunction
// test, an intra-element test, or an attribute-presence test.
// Exactly one of the three fields is set.
type residTest struct {
	sig      string // structural signature; the sharing key within one level
	ct       *match.AttrTest
	it       *intraTest
	presence string
}

func (rt *residTest) eval(w *wm.WME) bool {
	switch {
	case rt.ct != nil:
		return w.HasAttr(rt.ct.Attr) && rt.ct.Matches(w.Attr(rt.ct.Attr))
	case rt.it != nil:
		return w.HasAttr(rt.it.attrA) && w.HasAttr(rt.it.attrB) &&
			rt.it.op.Eval(w.Attr(rt.it.attrA), w.Attr(rt.it.attrB))
	default:
		return w.HasAttr(rt.presence)
	}
}

// alphaNode is one discrimination node. Hash-bucket nodes and class
// roots are pure routing points (test == nil — the probe that reached
// them already decided); residual nodes evaluate exactly one test. A
// pattern's terminal node carries its alpha memory; kids routes the
// patterns that continue below. refs counts the patterns whose path
// runs through the node.
type alphaNode struct {
	test *residTest
	mem  *alphaMem
	kids *discLevel
	refs int
}

// eqRoot is one hash-routed attribute within a level: value-keyed
// buckets, each the subtree of the patterns whose test at this level
// compares the attribute against the bucket's constant.
type eqRoot struct {
	buckets map[string]*alphaNode
}

// discLevel is one branching point of the tree: hash-routed equality
// attributes (eqAttrs mirrors eqRoots' keys in sorted order so
// routing never iterates a map) and the residual test nodes, in
// creation order.
type discLevel struct {
	eqAttrs []string
	eqRoots map[string]*eqRoot
	rest    []*alphaNode
}

// classDisc is the per-class root. A pattern with no tests at all
// terminates directly at the root node.
type classDisc struct {
	root *alphaNode
}

// routableKind reports whether appendValueKey's encoding of the kind
// is injective up to Value.Equal, i.e. whether a bucket probe can
// stand in for the equality test itself.
func routableKind(k wm.Kind) bool {
	switch k {
	case wm.KindInt, wm.KindFloat, wm.KindBool, wm.KindString, wm.KindSymbol:
		return true
	}
	return false
}

// splitPattern decomposes a pattern canonically: the hash-routable
// equality tests sorted by (attribute, encoded constant), then the
// residual tests sorted by signature. The decomposition is a pure
// function of the test set, so structurally equal patterns route
// identically and patterns agreeing on a prefix share its nodes.
func splitPattern(consts []match.AttrTest, intras []intraTest, presence []string) (eqs []match.AttrTest, resid []residTest) {
	for i := range consts {
		t := consts[i]
		if !t.IsDisjunction() && t.Op == match.OpEq && routableKind(t.Const.Kind()) {
			eqs = append(eqs, t)
		} else {
			resid = append(resid, residTest{sig: constPart(t), ct: &t})
		}
	}
	sort.Slice(eqs, func(i, j int) bool {
		if eqs[i].Attr != eqs[j].Attr {
			return eqs[i].Attr < eqs[j].Attr
		}
		return string(appendValueKey(nil, eqs[i].Const)) < string(appendValueKey(nil, eqs[j].Const))
	})
	for i := range intras {
		it := intras[i]
		resid = append(resid, residTest{sig: intraPart(it), it: &it})
	}
	for _, a := range presence {
		resid = append(resid, residTest{sig: presencePart(a), presence: a})
	}
	sort.Slice(resid, func(i, j int) bool { return resid[i].sig < resid[j].sig })
	return eqs, resid
}

// discAttach threads a new alpha pattern into its class's
// discrimination tree, creating the levels, buckets and residual
// nodes it needs and counting the pattern on every node along the
// path.
func (n *Network) discAttach(am *alphaMem, consts []match.AttrTest, intras []intraTest, presence []string) {
	d := n.disc[am.class]
	if d == nil {
		d = &classDisc{root: &alphaNode{}}
		n.disc[am.class] = d
	}
	eqs, resid := splitPattern(consts, intras, presence)

	cur := d.root
	cur.refs++

	level := func() *discLevel {
		if cur.kids == nil {
			cur.kids = &discLevel{}
		}
		return cur.kids
	}
	for _, t := range eqs {
		lv := level()
		if lv.eqRoots == nil {
			lv.eqRoots = make(map[string]*eqRoot)
		}
		er := lv.eqRoots[t.Attr]
		if er == nil {
			er = &eqRoot{buckets: make(map[string]*alphaNode)}
			lv.eqRoots[t.Attr] = er
			lv.eqAttrs = append(lv.eqAttrs, t.Attr)
			sort.Strings(lv.eqAttrs)
		}
		key := string(appendValueKey(nil, t.Const))
		node := er.buckets[key]
		if node == nil {
			node = &alphaNode{}
			er.buckets[key] = node
		}
		node.refs++
		cur = node
	}
	for _, rt := range resid {
		lv := level()
		var node *alphaNode
		for _, c := range lv.rest {
			if c.test.sig == rt.sig {
				node = c
				break
			}
		}
		if node == nil {
			rt := rt
			node = &alphaNode{test: &rt}
			lv.rest = append(lv.rest, node)
		}
		node.refs++
		cur = node
	}
	cur.mem = am
}

// routeWME routes a WME through its class's discrimination tree,
// appending every alpha memory whose pattern it satisfies to out
// (which callers pass as pooled scratch). The routing order — sorted
// attributes per level, then residual nodes in creation order — is a
// function of the program, never of map iteration.
func (n *Network) routeWME(w *wm.WME, out []*alphaMem) []*alphaMem {
	d := n.disc[w.Class]
	if d == nil {
		return out
	}
	return n.routeAlpha(d.root, w, out)
}

// routeAlpha evaluates one node's residual test (roots and bucket
// nodes pass — their probe already decided), collects the node's
// memory, and descends into its branching level.
func (n *Network) routeAlpha(node *alphaNode, w *wm.WME, out []*alphaMem) []*alphaMem {
	if node.test != nil {
		n.metAlphaTest()
		if !node.test.eval(w) {
			return out
		}
	}
	if node.mem != nil {
		out = append(out, node.mem)
	}
	if node.kids != nil {
		out = n.routeLevel(node.kids, w, out)
	}
	return out
}

// routeLevel probes each hash-routed attribute the WME carries and
// walks the residual nodes. The key scratch buffer is handed through
// the Network so recursion reuses one allocation-free buffer.
func (n *Network) routeLevel(lv *discLevel, w *wm.WME, out []*alphaMem) []*alphaMem {
	buf := n.akbuf
	for _, attr := range lv.eqAttrs {
		if !w.HasAttr(attr) {
			continue
		}
		buf = appendValueKey(buf[:0], w.Attr(attr))
		n.metAlphaProbe()
		if b := lv.eqRoots[attr].buckets[string(buf)]; b != nil {
			n.akbuf = buf
			out = n.routeAlpha(b, w, out)
			buf = n.akbuf
		}
	}
	n.akbuf = buf
	for _, c := range lv.rest {
		out = n.routeAlpha(c, w, out)
	}
	return out
}

// walkDisc visits every discrimination node below (not including) a
// class root, in unspecified order — for counting only, never
// routing.
func walkDisc(lv *discLevel, fn func(node *alphaNode)) {
	if lv == nil {
		return
	}
	var visit func(node *alphaNode)
	visit = func(node *alphaNode) {
		fn(node)
		walkDisc(node.kids, fn)
	}
	for _, er := range lv.eqRoots {
		for _, b := range er.buckets {
			visit(b)
		}
	}
	for _, c := range lv.rest {
		visit(c)
	}
}

// countSharedAlpha counts discrimination nodes (hash buckets and
// residual test nodes) on more than one pattern's path — the
// cross-rule factoring the network achieves, published as
// rete_alpha_shared.
func (n *Network) countSharedAlpha() int64 {
	var shared int64
	for _, d := range n.disc {
		walkDisc(d.root.kids, func(node *alphaNode) {
			if node.refs > 1 {
				shared++
			}
		})
	}
	return shared
}
