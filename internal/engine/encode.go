package engine

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"

	"protogen/internal/ir"
)

// Permutations returns all permutations of {0..n-1}, used for symmetry
// reduction over cache identities (the Murphi scalarset equivalent). The
// identity permutation is always first.
func Permutations(n int) [][]int {
	var out [][]int
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), perm...))
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return out
}

// Encoder renders System states as compact binary keys for the model
// checker's visited set. The encoding is injective for a fixed protocol
// and system configuration: every variable-length section (defer queues,
// network queues) is length-prefixed, every scalar is written through the
// self-delimiting putInt form, and messages pack into single uint64 words
// written big-endian so byte order equals numeric order.
//
// An Encoder owns reusable scratch buffers and is NOT safe for concurrent
// use; give each checker worker its own.
type Encoder struct {
	typeIdx map[string]int
	buf     []byte   // encoding under construction
	best    []byte   // minimal encoding seen so far (Canonical)
	bag     []uint64 // unordered-network sort scratch
	inv     []int    // inverse permutation scratch
	secs    [][]byte // per-cache section scratch (signature sort)
	order   []int    // cache indices in sorted-section order
	perm    []int    // candidate permutation scratch (perm[old] = new)
	rest    []byte   // dir+net suffix under the candidate permutation
	restMin []byte   // minimal suffix over tie-group candidates
	// Impure-state search arenas: the surviving candidates of the
	// current level and the children of the next, swapped per level.
	cands [2]candSet
	stats CanonStats
}

// CanonStats counts which canonicalization strategy each Canonical call
// took. Fast + TieStates + Fallbacks equals the number of symmetry-reduced
// Canonical calls; TieEncodes and SearchNodes are the extra work ties and
// impure states cost.
type CanonStats struct {
	// Fast counts states canonicalized with a single full encoding:
	// every cache section pure and all section signatures distinct.
	Fast uint64
	// TieStates counts states with at least one group of caches whose
	// sections were byte-identical; the canonical suffix was found by
	// enumerating orderings within those groups only.
	TieStates uint64
	// TieEncodes counts candidate orderings tried across all tie states
	// (each costs one directory+network suffix encoding, not a full
	// state encoding).
	TieEncodes uint64
	// Fallbacks counts impure states: some cache section embeds a
	// remappable cache id (a VID variable, sharer-mask bit or deferred
	// message naming another cache), so sorting sections cannot order
	// them and the prefix-pruned permutation search (canonicalSearch)
	// finds the minimum instead.
	Fallbacks uint64
	// SearchNodes counts the partial permutations the search kept,
	// summed over its levels and states: the search's width. Brute
	// force would cost n! full encodings per state instead.
	SearchNodes uint64
}

// Add accumulates o into s (for summing per-worker encoder stats).
func (s *CanonStats) Add(o CanonStats) {
	s.Fast += o.Fast
	s.TieStates += o.TieStates
	s.TieEncodes += o.TieEncodes
	s.Fallbacks += o.Fallbacks
	s.SearchNodes += o.SearchNodes
}

// Stats returns the canonicalization counters accumulated so far.
func (e *Encoder) Stats() CanonStats { return e.stats }

// NewEncoder builds an encoder for systems instantiated from p.
func NewEncoder(p *ir.Protocol) *Encoder {
	e := &Encoder{typeIdx: make(map[string]int, len(p.Msgs))}
	for i, d := range p.Msgs {
		e.typeIdx[string(d.Type)] = i
	}
	return e
}

// Key encodes the state with cache identities unchanged. The returned
// slice aliases the encoder's scratch buffer and is valid until the next
// Key/Canonical call.
func (e *Encoder) Key(s *System) []byte {
	e.encodeSys(s, nil)
	return e.buf
}

// Canonical returns the lexicographically smallest encoding of the system
// state over the given cache-identity permutations — the symmetry-reduced
// key (caches are interchangeable; the directory is not permuted). Passing
// nil or only the identity gives the plain key. The returned slice aliases
// encoder scratch and is valid until the next Key/Canonical call.
//
// The result is bit-identical to CanonicalBrute's minimum over all perms,
// but the common case costs one encoding instead of n!. The argument:
// a cache section is "pure" when it embeds no remappable cache id (no VID
// variable holding a cache, no low sharer-mask bit, no deferred message
// naming a cache), so its bytes are the same under every permutation; and
// sections are prefix-free (same self-delimiting field sequence, so two
// distinct sections differ at a byte both possess). The minimal full
// encoding therefore places pure sections in sorted byte order — any
// unsorted adjacent pair could be swapped for a strictly smaller encoding,
// with the first difference landing inside the swapped section, before the
// directory/network suffix can matter. Freedom remains only inside groups
// of byte-identical sections, where the directory+network suffix decides:
// those orderings (the product of tie-group factorials, usually 1) are
// enumerated. Any impure section voids the argument, so such states take
// the prefix-pruned permutation search (canonicalSearch;
// CanonStats.Fallbacks counts them), which is exact as well.
//
// The sorting argument minimizes over the FULL symmetric group, so the
// fast path engages only when perms has all n! permutations (what
// Permutations(n) produces — the checker's only configuration); a
// proper subset would define a coarser equivalence that sorting must
// not widen, so it takes CanonicalBrute over exactly the given perms.
func (e *Encoder) Canonical(s *System, perms [][]int) []byte {
	n := len(s.Caches)
	if len(perms) <= 1 || n <= 1 {
		return e.Key(s)
	}
	if len(perms) != factorial(n) {
		return e.CanonicalBrute(s, perms)
	}
	for _, c := range s.Caches {
		if !sectionPure(c, n) {
			e.stats.Fallbacks++
			return e.canonicalSearch(s)
		}
	}
	// Encode each cache's section once: pure sections encode identically
	// under every permutation, so the identity rendering is THE section.
	if cap(e.secs) < n {
		e.secs = make([][]byte, n)
	}
	e.secs = e.secs[:n]
	for i, c := range s.Caches {
		e.secs[i], _ = e.encodeCtrl(e.secs[i][:0], c, nil)
	}
	e.order = e.order[:0]
	for i := 0; i < n; i++ {
		e.order = append(e.order, i)
	}
	slices.SortStableFunc(e.order, func(a, b int) int {
		return bytes.Compare(e.secs[a], e.secs[b])
	})
	// The canonical cache prefix is fixed now; build it in e.buf.
	b := e.buf[:0]
	for _, old := range e.order {
		b = append(b, e.secs[old]...)
	}
	e.buf = b
	if cap(e.perm) < n {
		e.perm = make([]int, n)
	}
	e.perm = e.perm[:n]
	for pos, old := range e.order {
		e.perm[old] = pos
	}
	ties := false
	for j := 1; j < n; j++ {
		if bytes.Equal(e.secs[e.order[j]], e.secs[e.order[j-1]]) {
			ties = true
			break
		}
	}
	if !ties {
		e.stats.Fast++
		e.setInv(e.perm)
		e.buf = e.encodeRest(e.buf, s, e.perm)
		return e.buf
	}
	// Tie groups: identical sections make the prefix insensitive to their
	// internal order, so enumerate orderings within each group and keep
	// the minimal directory+network suffix.
	e.stats.TieStates++
	prefix := len(e.buf)
	e.restMin = e.restMin[:0]
	e.tieGroups(s, 0)
	e.buf = append(e.buf[:prefix], e.restMin...)
	return e.buf
}

// tieGroups recurses over runs of byte-identical sections starting at
// sorted position from, permuting e.order within each run; at each leaf
// the full candidate permutation's suffix is encoded and the minimum kept.
func (e *Encoder) tieGroups(s *System, from int) {
	n := len(e.order)
	if from >= n {
		e.stats.TieEncodes++
		for pos, old := range e.order {
			e.perm[old] = pos
		}
		e.setInv(e.perm)
		e.rest = e.encodeRest(e.rest[:0], s, e.perm)
		if len(e.restMin) == 0 || bytes.Compare(e.rest, e.restMin) < 0 {
			e.rest, e.restMin = e.restMin, e.rest
		}
		return
	}
	end := from + 1
	for end < n && bytes.Equal(e.secs[e.order[end]], e.secs[e.order[from]]) {
		end++
	}
	if end-from == 1 {
		e.tieGroups(s, end)
		return
	}
	var rec func(k int)
	rec = func(k int) {
		if k == end {
			e.tieGroups(s, end)
			return
		}
		for i := k; i < end; i++ {
			e.order[k], e.order[i] = e.order[i], e.order[k]
			rec(k + 1)
			e.order[k], e.order[i] = e.order[i], e.order[k]
		}
	}
	rec(from)
}

// candSet is one level of canonicalSearch: partial permutations and
// their determined prefixes, stored flat so a warm Encoder searches
// without allocating.
type candSet struct {
	n    int    // caches: each candidate owns n entries of perm
	perm []int  // candidate i is perm[i*n:(i+1)*n], perm[old] = new, -1 unplaced
	pre  []byte // determined prefixes, concatenated
	end  []int  // candidate i's prefix ends at pre[end[i]]
	stop []int  // first position whose section is not fully determined
	mark []int  // offset in the prefix where section stop begins
}

func (c *candSet) reset(n int) {
	c.n = n
	c.perm, c.pre = c.perm[:0], c.pre[:0]
	c.end, c.stop, c.mark = c.end[:0], c.stop[:0], c.mark[:0]
}

func (c *candSet) count() int { return len(c.end) }

func (c *candSet) permOf(i int) []int { return c.perm[i*c.n : (i+1)*c.n] }

func (c *candSet) prefix(i int) []byte {
	start := 0
	if i > 0 {
		start = c.end[i-1]
	}
	return c.pre[start:c.end[i]]
}

// pop drops the last candidate.
func (c *candSet) pop() {
	last := c.count() - 1
	c.pre = c.pre[:len(c.pre)-len(c.prefix(last))]
	c.perm = c.perm[:last*c.n]
	c.end, c.stop, c.mark = c.end[:last], c.stop[:last], c.mark[:last]
}

// push appends candidate i of src unchanged.
func (c *candSet) push(src *candSet, i int) {
	c.perm = append(c.perm, src.permOf(i)...)
	c.pre = append(c.pre, src.prefix(i)...)
	c.end = append(c.end, len(c.pre))
	c.stop = append(c.stop, src.stop[i])
	c.mark = append(c.mark, src.mark[i])
}

// canonicalSearch is Canonical for impure states: the minimal encoding
// over all n! permutations, found by placing caches at positions 0, 1,
// ... in turn and pruning partial permutations by their prefixes.
//
// A candidate's determined prefix is the encoding of the sections at
// its placed positions, cut at the first field naming a cache it has
// not placed yet (a VID slot, a mask bit or a deferred message). Every
// completion of the candidate starts with that prefix. So when
// candidate A's prefix is strictly smaller than B's at a byte both
// determine, every completion of A beats every completion of B, and B
// cannot lead to the minimum: dropping it is exact. Bytes are compared,
// never decoded numbers (putInt escapes large mask values). What
// survives a level is a chain of prefixes, each a prefix of the level's
// best one, so one pass finds that best and a second keeps the
// children agreeing with it. With every cache placed, the survivors'
// sections are complete, and the smallest full encoding among them is
// CanonicalBrute's answer byte for byte.
func (e *Encoder) canonicalSearch(s *System) []byte {
	n := len(s.Caches)
	cur, next := &e.cands[0], &e.cands[1]
	cur.reset(n)
	for i := 0; i < n; i++ {
		cur.perm = append(cur.perm, -1)
	}
	cur.end = append(cur.end, 0)
	cur.stop = append(cur.stop, 0)
	cur.mark = append(cur.mark, 0)
	for pos := 0; pos < n; pos++ {
		next.reset(n)
		best := -1 // the child whose prefix every survivor must agree with
		for i := 0; i < cur.count(); i++ {
			for old := 0; old < n; old++ {
				if cur.permOf(i)[old] >= 0 {
					continue
				}
				e.pushChild(next, cur, i, old, pos, s)
				j := next.count() - 1
				if best < 0 {
					best = j
					continue
				}
				a, b := next.prefix(best), next.prefix(j)
				switch c := cmpDetermined(a, b); {
				case c < 0:
					next.pop()
				case c > 0 || len(b) > len(a):
					best = j
				}
			}
		}
		// Children kept before best last moved may disagree with it.
		cur.reset(n)
		bp := next.prefix(best)
		for j := 0; j < next.count(); j++ {
			if cmpDetermined(bp, next.prefix(j)) == 0 {
				cur.push(next, j)
			}
		}
		e.stats.SearchNodes += uint64(cur.count())
	}
	e.best = e.best[:0]
	for i := 0; i < cur.count(); i++ {
		perm := cur.permOf(i)
		e.setInv(perm)
		e.buf = append(e.buf[:0], cur.prefix(i)...)
		e.buf = e.encodeRest(e.buf, s, perm)
		if len(e.best) == 0 || bytes.Compare(e.buf, e.best) < 0 {
			e.buf, e.best = e.best, e.buf
		}
	}
	return e.best
}

// pushChild appends to dst the child of src's candidate i that places
// cache old at position pos, extending the parent's prefix as far as
// the child's placements determine it.
func (e *Encoder) pushChild(dst, src *candSet, i, old, pos int, s *System) {
	dst.perm = append(dst.perm, src.permOf(i)...)
	perm := dst.perm[len(dst.perm)-dst.n:]
	perm[old] = pos
	start := len(dst.pre)
	stop, mark := src.stop[i], src.mark[i]
	dst.pre = append(dst.pre, src.prefix(i)[:mark]...)
	for ; stop <= pos; stop++ {
		var ok bool
		dst.pre, ok = e.encodeCtrl(dst.pre, s.Caches[holder(perm, stop)], perm)
		if !ok {
			break
		}
		mark = len(dst.pre) - start
	}
	dst.end = append(dst.end, len(dst.pre))
	dst.stop = append(dst.stop, stop)
	dst.mark = append(dst.mark, mark)
}

// cmpDetermined compares two determined prefixes over the bytes both
// hold: negative when a is strictly smaller there, positive when b is,
// zero when one is a prefix of the other.
func cmpDetermined(a, b []byte) int {
	l := min(len(a), len(b))
	return bytes.Compare(a[:l], b[:l])
}

// holder returns the cache a permutation places at position pos.
func holder(perm []int, pos int) int {
	for old, p := range perm {
		if p == pos {
			return old
		}
	}
	panic("engine: position not placed")
}

// factorial(n) for the cache counts a model checker can face; saturates
// far above any realistic permutation-list length.
func factorial(n int) int {
	f := 1
	for i := 2; i <= n && f < 1<<40; i++ {
		f *= i
	}
	return f
}

// sectionPure reports whether cache c's encoded section is independent of
// the cache-identity permutation: no VID variable holding a cache id, no
// sharer-mask bit below n, and no deferred message whose src/dst/req names
// a cache (the directory id and NoID pass every permutation unchanged).
func sectionPure(c *Ctrl, n int) bool {
	for i, v := range c.Ints {
		if c.L.IntIsVID[i] && v >= 0 && v < n {
			return false
		}
	}
	low := uint32(1)<<uint(n) - 1
	for _, m := range c.Masks {
		if m&low != 0 {
			return false
		}
	}
	for _, d := range c.DeferQ {
		if (d.Src >= 0 && d.Src < n) || (d.Dst >= 0 && d.Dst < n) || (d.Req >= 0 && d.Req < n) {
			return false
		}
	}
	return true
}

// CanonicalBrute is the reference canonicalization: encode the state under
// every permutation and keep the lexicographic minimum. O(n!) per state —
// the differential-test oracle that pins Canonical's output bit-for-bit,
// and Canonical's path for permutation lists short of the full group.
// The returned slice aliases encoder scratch and is valid until the next
// Key/Canonical call.
func (e *Encoder) CanonicalBrute(s *System, perms [][]int) []byte {
	if len(perms) <= 1 {
		return e.Key(s)
	}
	e.best = e.best[:0]
	for _, p := range perms {
		e.encodeSys(s, p)
		if len(e.best) == 0 || bytes.Compare(e.buf, e.best) < 0 {
			e.buf, e.best = e.best, e.buf
		}
	}
	return e.best
}

// encodeSys writes the full system encoding into e.buf. A nil perm means
// identity. With a permutation, caches are emitted in renumbered order and
// every embedded node id (VID variables, id-set masks, message fields) is
// remapped, so symmetric states encode identically.
func (e *Encoder) encodeSys(s *System, perm []int) {
	b := e.buf[:0]
	if perm == nil {
		for _, c := range s.Caches {
			b, _ = e.encodeCtrl(b, c, nil)
		}
	} else {
		e.setInv(perm)
		// Position j holds the cache whose renumbered id is j.
		for j := 0; j < len(perm); j++ {
			b, _ = e.encodeCtrl(b, s.Caches[e.inv[j]], perm)
		}
	}
	e.buf = e.encodeRest(b, s, perm)
}

// encodeRest appends everything after the cache sections: the directory,
// the last-write value and the interconnect. e.inv must already invert
// perm (setInv) when perm is non-nil.
func (e *Encoder) encodeRest(b []byte, s *System, perm []int) []byte {
	b, _ = e.encodeCtrl(b, s.Dir, perm)
	b = putInt(b, s.LastWrite)
	return e.encodeNet(b, s.Net, perm)
}

// setInv fills e.inv with perm's inverse (inv[new] = old).
func (e *Encoder) setInv(perm []int) {
	e.inv = e.inv[:0]
	for range perm {
		e.inv = append(e.inv, 0)
	}
	for old, new := range perm {
		e.inv[new] = old
	}
}

// encodeCtrl appends one controller: state index, int slots (VID slots
// remapped), set masks, pending access, then the length-prefixed defer
// queue. perm may be partial (-1 marks an unplaced cache, see
// canonicalSearch): then encodeCtrl stops before the first field naming
// an unplaced cache and reports false, and everything appended up to
// there is what every completion of perm encodes. It reports true under
// a nil or full permutation.
func (e *Encoder) encodeCtrl(b []byte, c *Ctrl, perm []int) ([]byte, bool) {
	b = putInt(b, c.StIdx)
	for i, v := range c.Ints {
		if perm != nil && c.L.IntIsVID[i] {
			if unplaced(perm, v) {
				return b, false
			}
			v = permID(perm, v)
		}
		b = putInt(b, v)
	}
	for _, m := range c.Masks {
		if perm != nil {
			for rest := m; rest != 0; rest &= rest - 1 {
				if unplaced(perm, bits.TrailingZeros32(rest)) {
					return b, false
				}
			}
			m = permMask(m, perm)
		}
		b = putInt(b, int(m))
	}
	b = putInt(b, int(c.Pend))
	b = putInt(b, len(c.DeferQ))
	for _, d := range c.DeferQ {
		if unplaced(perm, d.Src) || unplaced(perm, d.Dst) || unplaced(perm, d.Req) {
			return b, false
		}
		b = e.appendMsg(b, d, perm)
	}
	return b, true
}

// unplaced reports whether id is a cache a partial permutation has not
// placed yet.
func unplaced(perm []int, id int) bool {
	return id >= 0 && id < len(perm) && perm[id] < 0
}

// encodeNet appends the interconnect. Ordered networks emit every
// (class, src, dst) FIFO in renumbered coordinate order (length-prefixed,
// empties included, so the layout is fixed); unordered networks emit each
// class bag sorted, so permutations of the same multiset encode
// identically.
func (e *Encoder) encodeNet(b []byte, n *Network, perm []int) []byte {
	if !n.Ordered {
		for class := 0; class < NumClasses; class++ {
			b = e.appendBag(b, n.queues[class], perm)
		}
		return b
	}
	nodes := n.Nodes
	for class := 0; class < NumClasses; class++ {
		base := class * nodes * nodes
		for src := 0; src < nodes; src++ {
			// The queue that renumbers to (src, dst) sits at the
			// pre-image coordinates.
			srcBase := base + e.preImage(src, perm)*nodes
			for dst := 0; dst < nodes; dst++ {
				q := n.queues[srcBase+e.preImage(dst, perm)]
				b = putInt(b, len(q))
				for _, m := range q {
					b = e.appendMsg(b, m, perm)
				}
			}
		}
	}
	return b
}

// appendBag appends an unordered message bag in canonical (sorted) order,
// so permutations of the same multiset encode identically. When every
// message packs into a word — always, in practice — the sort runs over
// the reused uint64 scratch without allocating; otherwise the messages'
// self-delimiting encodings are sorted bytewise.
func (e *Encoder) appendBag(b []byte, q []Msg, perm []int) []byte {
	e.bag = e.bag[:0]
	fast := true
	for _, m := range q {
		w, ok := e.tryMsgWord(m, perm)
		if !ok {
			fast = false
			break
		}
		e.bag = append(e.bag, w)
	}
	b = putInt(b, len(q))
	if fast {
		slices.Sort(e.bag)
		for _, w := range e.bag {
			b = append(b, msgPacked)
			b = putU64(b, w)
		}
		return b
	}
	encs := make([][]byte, len(q))
	for i, m := range q {
		encs[i] = e.appendMsg(nil, m, perm)
	}
	slices.SortFunc(encs, bytes.Compare)
	for _, enc := range encs {
		b = append(b, enc...)
	}
	return b
}

// Message encoding markers: every message starts with one, so the packed
// and escaped forms stay uniquely decodable side by side.
const (
	msgPacked  = 0 // 8-byte big-endian word follows
	msgEscaped = 1 // seven putInt fields follow
)

// appendMsg appends one message: the packed single-word form when every
// field fits a byte (the overwhelmingly common case), or the escaped
// variable-width form for out-of-range fields (huge ack counts, value
// domains past 254), so exotic configurations degrade instead of failing.
func (e *Encoder) appendMsg(b []byte, m Msg, perm []int) []byte {
	if w, ok := e.tryMsgWord(m, perm); ok {
		b = append(b, msgPacked)
		return putU64(b, w)
	}
	b = append(b, msgEscaped)
	b = putInt(b, e.typeIndex(m))
	b = putInt(b, permID(perm, m.Src))
	b = putInt(b, permID(perm, m.Dst))
	req := m.Req
	if req != NoID {
		req = permID(perm, req)
	}
	b = putInt(b, req)
	b = putInt(b, m.Acks)
	b = putInt(b, m.Data)
	if m.HasData {
		return append(b, 1)
	}
	return append(b, 0)
}

// tryMsgWord packs a message into one 56-bit word: type index, src, dst,
// req, acks, data (each biased by one so NoID encodes as zero), and the
// data flag. Reports false when any field falls outside a byte.
func (e *Encoder) tryMsgWord(m Msg, perm []int) (uint64, bool) {
	req := m.Req
	if req != NoID {
		req = permID(perm, req)
	}
	fields := [6]int{e.typeIndex(m), permID(perm, m.Src), permID(perm, m.Dst), req, m.Acks, m.Data}
	var w uint64
	for _, v := range fields {
		if v < -1 || v > 254 {
			return 0, false
		}
		w = w<<8 | uint64(v+1)
	}
	w = w << 8
	if m.HasData {
		w |= 1
	}
	return w, true
}

func (e *Encoder) typeIndex(m Msg) int {
	if m.tIdx > 0 {
		return m.tIdx - 1
	}
	ti, ok := e.typeIdx[m.Type]
	if !ok {
		panic(fmt.Sprintf("engine: encoding undeclared message type %q", m.Type))
	}
	return ti
}

// permID remaps a node id through perm; the directory (and NoID) pass
// through unchanged, as do all ids under a nil (identity) permutation.
func permID(perm []int, id int) int {
	if perm != nil && id >= 0 && id < len(perm) {
		return perm[id]
	}
	return id
}

// permMask renumbers the bits of an id-set mask.
func permMask(m uint32, perm []int) uint32 {
	var out uint32
	for i := 0; i < 32; i++ {
		if m&(1<<uint(i)) != 0 {
			out |= 1 << uint(permID(perm, i))
		}
	}
	return out
}

// preImage finds x with perm[x] == id (identity for the directory),
// using the inverse permutation prepared by encodeSys.
func (e *Encoder) preImage(id int, perm []int) int {
	if perm != nil && id >= 0 && id < len(e.inv) {
		return e.inv[id]
	}
	return id
}

// putInt appends a self-delimiting integer: values in [-1, 253] take one
// byte (biased by one); anything else escapes to a marker plus eight
// little-endian bytes. State indices, variable slots, masks and queue
// lengths all take the short form in practice.
func putInt(b []byte, v int) []byte {
	if v >= -1 && v <= 253 {
		return append(b, byte(v+1))
	}
	u := uint64(int64(v))
	return append(b, 0xFF,
		byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// putU64 appends a fixed-width big-endian word, so lexicographic byte
// order matches numeric order (the unordered-bag sort relies on this).
func putU64(b []byte, w uint64) []byte {
	return append(b,
		byte(w>>56), byte(w>>48), byte(w>>40), byte(w>>32),
		byte(w>>24), byte(w>>16), byte(w>>8), byte(w))
}

// Fingerprint hashes a canonical state encoding to a 64-bit state
// fingerprint: FNV-1a over the bytes followed by a splitmix64-style
// avalanche finalizer, so high and low bit ranges both mix well — the
// fingerprint visited table derives its shard index from the top bits
// and its slot index from the bottom bits of the same word.
func Fingerprint(b []byte) uint64 {
	h := Fnv1a(b)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// FNV-1a over a binary key — Fingerprint's input hash (the checker's
// visited sets consume Fingerprint, not this, for shard and slot
// selection).
func Fnv1a(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}
