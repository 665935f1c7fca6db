package rete

import (
	"pdps/internal/match"
	"pdps/internal/wm"
)

// token is one row of partial-match state: a chain of WMEs (one per
// condition element so far; nil at negative-CE levels). Tokens come
// from the network's slab and every list a token sits on is intrusive
// (Doorenbos §2.8), so building and deleting one allocates nothing
// once the slab has grown.
type token struct {
	parent *token
	w      *wm.WME
	node   interface{} // *memNode, *negNode or *prodNode owning this token

	child *token      // head of the children, newest first
	sib   link[token] // in the parent's children
	item  link[token] // in a memNode's or negNode's items, oldest first
	byW   link[token] // in w's tokens, oldest first

	// jr heads a negNode token's join results: the WMEs matching the
	// negated CE under it. The token is valid while jr is nil.
	jr *joinResult
	// inst is a prodNode token's instantiation.
	inst *match.Instantiation
}

func (t *token) sibs() *link[token]  { return &t.sib }
func (t *token) items() *link[token] { return &t.item }
func (t *token) wmes() *link[token]  { return &t.byW }

// up walks n steps towards the root and returns that ancestor.
func (t *token) up(n int) *token {
	for ; n > 0; n-- {
		t = t.parent
	}
	return t
}

// holds reports whether w is in t's chain, which, while w is being
// inserted, means this insert made t. Every alpha memory the WME
// enters holds it before any successor runs, so a scanning node's left
// activation that made t already met w, and its right activation
// skips t: a WME matching two levels of one chain is joined once. An
// indexed node needs no skip, since its right index takes the WME only
// when the node is right-activated.
func (t *token) holds(w *wm.WME) bool {
	for ; t != nil; t = t.parent {
		if t.w == w {
			return true
		}
	}
	return false
}

// nextValid returns t or the first token after it in its owner's items
// that is valid (has no join results); memNode tokens always are.
func nextValid(t *token) *token {
	for t != nil && t.jr != nil {
		t = t.item.next
	}
	return t
}

// joinResult records that w matches the negated CE under owner. It is
// linked into the owner's list and into w's list, so deleting either
// side finds it without a search.
type joinResult struct {
	owner *token
	w     *wm.WME
	byOwn link[joinResult]
	byW   link[joinResult] // oldest first
}

func (r *joinResult) owners() *link[joinResult] { return &r.byOwn }
func (r *joinResult) wmes() *link[joinResult]   { return &r.byW }

// alphaItem records that w is in mem. It is linked into mem's items
// and into w's list, so removing w finds its memberships without a
// search; w's list is only ever dropped whole, so it is singly linked.
type alphaItem struct {
	w     *wm.WME
	mem   *alphaMem
	inMem link[alphaItem] // oldest first
	nextW *alphaItem
}

func (it *alphaItem) mems() *link[alphaItem] { return &it.inMem }

// wmeRefs heads a WME's three lists: the tokens built on it, the join
// results it takes part in and its alpha-memory items.
type wmeRefs struct {
	tok *token
	jr  *joinResult
	am  *alphaItem
}

// link is one intrusive list membership. A list is its head pointer;
// the head's prev is the tail and the tail's next is nil, so both ends
// are O(1) from the head alone.
type link[T any] struct{ prev, next *T }

// pushBack appends x to the list headed by *head.
func pushBack[T any](head **T, x *T, l func(*T) *link[T]) {
	h := *head
	if h == nil {
		*head, l(x).prev = x, x
		return
	}
	tail := l(h).prev
	l(tail).next, l(x).prev, l(h).prev = x, tail, x
}

// pushFront prepends x to the list headed by *head.
func pushFront[T any](head **T, x *T, l func(*T) *link[T]) {
	if h := *head; h != nil {
		l(x).next, l(x).prev, l(h).prev = h, l(h).prev, x
	} else {
		l(x).prev = x
	}
	*head = x
}

// unlink removes x from the list headed by *head.
func unlink[T any](head **T, x *T, l func(*T) *link[T]) {
	lx := l(x)
	switch {
	case x == *head:
		*head = lx.next
	case lx.next == nil: // x is the tail
		l(lx.prev).next, l(*head).prev = nil, lx.prev
		return
	default:
		l(lx.prev).next = lx.next
	}
	if lx.next != nil {
		l(lx.next).prev = lx.prev
	}
}

// slab hands out zeroed records of T from chunks and takes them back
// on a free list threaded through each record's freeLink. Chunks
// double from 8 to 64 records, so a small network stays small. put
// zeroes the record, so a free record keeps no token, WME or
// instantiation alive.
type slab[T any, P interface {
	*T
	freeLink() **T
}] struct {
	chunk []T
	size  int
	free  *T
	live  int // records handed out and not yet returned
}

func (t *token) freeLink() **token           { return &t.sib.next }
func (r *joinResult) freeLink() **joinResult { return &r.byOwn.next }
func (it *alphaItem) freeLink() **alphaItem  { return &it.inMem.next }

func (s *slab[T, P]) get() *T {
	s.live++
	if x := s.free; x != nil {
		fl := P(x).freeLink()
		s.free, *fl = *fl, nil
		return x
	}
	if len(s.chunk) == 0 {
		s.size = min(max(2*s.size, 8), 64)
		s.chunk = make([]T, s.size)
	}
	x := &s.chunk[0]
	s.chunk = s.chunk[1:]
	return x
}

func (s *slab[T, P]) put(x *T) {
	var zero T
	*x = zero
	*P(x).freeLink() = s.free
	s.free = x
	s.live--
}

// newToken takes a token from the slab, hangs it at the head of
// parent's children (so the newest child is deleted first) and, if it
// carries a WME, appends it to that WME's tokens.
func (n *Network) newToken(parent *token, w *wm.WME, node interface{}) *token {
	t := n.tokens.get()
	t.parent, t.w, t.node = parent, w, node
	pushFront(&parent.child, t, (*token).sibs)
	if w != nil {
		refs := n.byWME[w]
		pushBack(&refs.tok, t, (*token).wmes)
		n.byWME[w] = refs
	}
	return t
}

// freeToken unlinks a token, whose descendants and node bookkeeping
// are gone, from its parent and its WME, and returns it to the slab.
func (n *Network) freeToken(t *token) {
	unlink(&t.parent.child, t, (*token).sibs)
	if t.w != nil {
		refs := n.byWME[t.w]
		unlink(&refs.tok, t, (*token).wmes)
		n.storeRefs(t.w, refs)
	}
	n.tokens.put(t)
}

// storeRefs writes a WME's list heads back, dropping the entry once
// every list is empty so the map never holds a dead WME.
func (n *Network) storeRefs(w *wm.WME, refs wmeRefs) {
	if refs == (wmeRefs{}) {
		delete(n.byWME, w)
		return
	}
	n.byWME[w] = refs
}

// addJoinResult records that w matches the negated CE under owner.
func (n *Network) addJoinResult(owner *token, w *wm.WME) {
	r := n.results.get()
	r.owner, r.w = owner, w
	pushFront(&owner.jr, r, (*joinResult).owners)
	refs := n.byWME[w]
	pushBack(&refs.jr, r, (*joinResult).wmes)
	n.byWME[w] = refs
}

// dropJoinResult unlinks r from its owner and its WME and returns it to
// the slab.
func (n *Network) dropJoinResult(r *joinResult) {
	unlink(&r.owner.jr, r, (*joinResult).owners)
	refs := n.byWME[r.w]
	unlink(&refs.jr, r, (*joinResult).wmes)
	n.storeRefs(r.w, refs)
	n.results.put(r)
}

// addAlphaItems appends w to the items of every memory in mems.
func (n *Network) addAlphaItems(w *wm.WME, mems []*alphaMem) {
	refs := n.byWME[w]
	for _, mem := range mems {
		it := n.alphaItems.get()
		it.w, it.mem, it.nextW = w, mem, refs.am
		refs.am = it
		pushBack(&mem.items, it, (*alphaItem).mems)
		mem.n++
	}
	n.byWME[w] = refs
}

// dropAlphaItems takes w out of every memory that holds it.
func (n *Network) dropAlphaItems(w *wm.WME) {
	refs := n.byWME[w]
	for it := refs.am; it != nil; {
		next := it.nextW
		unlink(&it.mem.items, it, (*alphaItem).mems)
		it.mem.n--
		n.alphaItems.put(it)
		it = next
	}
	refs.am = nil
	n.storeRefs(w, refs)
}
