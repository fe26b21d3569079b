// Package bitmap provides uint64 bitsets and a per-value bitmap index over
// a dataset's categorical attributes and groups. Contrast set mining over
// categorical (or pre-binned) data reduces to intersecting value bitmaps
// and popcounting against group masks — the representation SciCSM (Zhu et
// al. 2015, the paper's ref [29]) builds its scientific-dataset contrast
// miner on. The STUCCO search uses this index for its candidate counting.
package bitmap

import (
	"math/bits"

	"sdadcs/internal/dataset"
)

// Set is a fixed-universe bitset over row indices 0..n-1.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set over a universe of n rows.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Universe returns the universe size n.
func (s *Set) Universe() int { return s.n }

// Add inserts row i.
func (s *Set) Add(i int) {
	s.words[i>>6] |= 1 << uint(i&63)
}

// Contains reports whether row i is present.
func (s *Set) Contains(i int) bool {
	return s.words[i>>6]&(1<<uint(i&63)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// AndCount returns |s ∩ o| without materializing the intersection — the
// hot operation when counting a candidate's per-group supports.
func (s *Set) AndCount(o *Set) int {
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w & o.words[i])
	}
	return c
}

// And returns a new set s ∩ o.
func (s *Set) And(o *Set) *Set {
	out := New(s.n)
	for i, w := range s.words {
		out.words[i] = w & o.words[i]
	}
	return out
}

// AndCountInto is the fused intersection kernel: one pass over the packed
// words computes dst = s ∩ o and its popcount together, instead of an And
// pass followed by a Count/Any pass. dst must share the universe; every
// word of dst is written, so dst may come from an Arena with undefined
// contents. Returns |s ∩ o|.
func (s *Set) AndCountInto(o, dst *Set) int {
	c := 0
	sw, ow, dw := s.words, o.words, dst.words
	if len(sw) == 0 {
		return 0
	}
	_ = dw[len(sw)-1] // one bounds check for the loop
	_ = ow[len(sw)-1]
	for i, w := range sw {
		w &= ow[i]
		dw[i] = w
		c += bits.OnesCount64(w)
	}
	return c
}

// AndCountAtLeast reports whether |s ∩ o| >= k without always completing
// the count: it succeeds as soon as the running popcount reaches k, and
// fails as soon as the remaining-words upper bound (64 bits per unseen
// word) cannot lift the running count to k. Exactly equivalent to
// AndCount(o) >= k; k <= 0 is trivially true.
func (s *Set) AndCountAtLeast(o *Set, k int) bool {
	if k <= 0 {
		return true
	}
	c := 0
	sw, ow := s.words, o.words
	remaining := len(sw) * 64
	for i, w := range sw {
		c += bits.OnesCount64(w & ow[i])
		if c >= k {
			return true
		}
		remaining -= 64
		if c+remaining < k {
			return false
		}
	}
	return c >= k
}

// AndInto writes s ∩ o into dst (which must share the universe) and
// returns dst; it avoids allocation in tight loops.
func (s *Set) AndInto(o, dst *Set) *Set {
	for i, w := range s.words {
		dst.words[i] = w & o.words[i]
	}
	return dst
}

// Fill sets every bit of the universe.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if r := uint(s.n & 63); r != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] = (1 << r) - 1
	}
}

// Any reports whether at least one bit is set. It short-circuits on the
// first non-zero word, so it is cheaper than Count() > 0 for sparse
// prefixes and dense sets alike.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Rows materializes the set bits as sorted row indices.
func (s *Set) Rows() []int {
	return s.AppendRows(make([]int, 0, s.Count()))
}

// AppendRows appends the set bits, in ascending order, to dst and returns
// the extended slice — the allocation-free materialization path for callers
// that reuse a buffer across many covers.
func (s *Set) AppendRows(dst []int) []int {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, wi<<6+b)
			w &= w - 1
		}
	}
	return dst
}

// Index holds one bitmap per categorical value and per group of a dataset.
type Index struct {
	n int
	// values[attr][code] is the rows where the categorical attribute has
	// the code; nil for continuous attributes.
	values [][]*Set
	groups []*Set
}

// NewIndex builds the index over d's categorical attributes and groups.
func NewIndex(d *dataset.Dataset) *Index {
	n := d.Rows()
	idx := &Index{n: n, values: make([][]*Set, d.NumAttrs()), groups: make([]*Set, d.NumGroups())}
	for g := range idx.groups {
		idx.groups[g] = New(n)
	}
	for r := 0; r < n; r++ {
		idx.groups[d.Group(r)].Add(r)
	}
	for _, attr := range d.CategoricalAttrs() {
		domain := d.Domain(attr)
		sets := make([]*Set, len(domain))
		for code := range sets {
			sets[code] = New(n)
		}
		for r := 0; r < n; r++ {
			sets[d.CatCode(attr, r)].Add(r)
		}
		idx.values[attr] = sets
	}
	return idx
}

// Rows returns the universe size.
func (ix *Index) Rows() int { return ix.n }

// NumBitmaps returns how many bitmaps the index holds (one per categorical
// value plus one per group) — the build cost the metrics layer reports.
func (ix *Index) NumBitmaps() int {
	n := len(ix.groups)
	for _, sets := range ix.values {
		n += len(sets)
	}
	return n
}

// Value returns the bitmap of rows where attr = code.
func (ix *Index) Value(attr, code int) *Set { return ix.values[attr][code] }

// Group returns the bitmap of rows in group g.
func (ix *Index) Group(g int) *Set { return ix.groups[g] }

// GroupCounts popcounts a cover against every group mask.
func (ix *Index) GroupCounts(cover *Set) []int {
	out := make([]int, len(ix.groups))
	ix.GroupCountsInto(cover, out)
	return out
}

// GroupCountsInto is the fused multi-mask popcount kernel: one pass over
// the cover's words counts the intersection with every group mask at once,
// so each cover word is loaded exactly once and zero cover words are
// skipped for all groups together (deep-level covers are sparse). The
// result is written into out (len = number of groups) and is exactly
// GroupCounts — the bit-identical guarantee the golden-equality tests pin.
func (ix *Index) GroupCountsInto(cover *Set, out []int) {
	for g := range out {
		out[g] = 0
	}
	switch len(ix.groups) {
	case 2:
		// The paper's two-group case, hot enough to unroll: no inner loop,
		// both masks stream alongside the cover.
		g0, g1 := ix.groups[0].words, ix.groups[1].words
		c0, c1 := 0, 0
		for i, w := range cover.words {
			if w == 0 {
				continue
			}
			c0 += bits.OnesCount64(w & g0[i])
			c1 += bits.OnesCount64(w & g1[i])
		}
		out[0], out[1] = c0, c1
	default:
		for i, w := range cover.words {
			if w == 0 {
				continue
			}
			for g, gs := range ix.groups {
				out[g] += bits.OnesCount64(w & gs.words[i])
			}
		}
	}
}

// ChildCovers is the batched sibling-candidate kernel: it intersects a
// parent cover with every value bitmap of a categorical attribute in one
// fused pass. The parent word is loaded once per position for all siblings
// (instead of once per child as with per-child And calls), a zero parent
// word short-circuits every sibling at once, and each child's popcount is
// accumulated in the same pass. Child covers are drawn from the arena;
// empty children are recycled immediately and never emitted. emit is
// called in ascending code order with the child's cover and exact count —
// the same covers and counts per-child AndCountInto would produce.
func (ix *Index) ChildCovers(parent *Set, attr int, a *Arena, emit func(code int, cover *Set, count int)) {
	vals := ix.values[attr]
	covers, counts := a.scratch(len(vals))
	for c := range vals {
		covers[c] = a.Get()
		counts[c] = 0
	}
	for i, pw := range parent.words {
		if pw == 0 {
			for c := range vals {
				covers[c].words[i] = 0
			}
			continue
		}
		for c, v := range vals {
			w := pw & v.words[i]
			covers[c].words[i] = w
			counts[c] += bits.OnesCount64(w)
		}
	}
	for c := range vals {
		if counts[c] == 0 {
			a.Put(covers[c])
			continue
		}
		emit(c, covers[c], counts[c])
	}
}

// All returns a full-universe set.
func (ix *Index) All() *Set {
	s := New(ix.n)
	s.Fill()
	return s
}

// Shared returns the dataset's cached index, building it on first use
// through the dataset's Index slot — one build per dataset ever, shared by
// every Mine call and serve job holding the dataset. The index is
// immutable after construction, so sharing needs no further locking.
// built reports whether this call paid for the build (the signal the
// build-count metrics record).
func Shared(d *dataset.Dataset) (ix *Index, built bool) {
	v, built := d.Index().LoadOrBuild(func() any { return NewIndex(d) })
	return v.(*Index), built
}
