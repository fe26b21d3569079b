package core

import (
	"context"
	"math"
	"sort"
	"time"

	"sdadcs/internal/dataset"
	"sdadcs/internal/metrics"
	"sdadcs/internal/pattern"
	"sdadcs/internal/stats"
	"sdadcs/internal/trace"
)

// sdadRun holds the state of one SDAD-CS invocation (Algorithm 1): a fixed
// categorical context catSet, the continuous attributes being jointly
// discretized, and the thresholds in force.
type sdadRun struct {
	// ctx is the mining context. A joint discretization can recurse and
	// merge long after the per-level check in miner.go has passed, so
	// cancellation is re-checked per split round (explore) and per merge
	// round (merge); nil means "never cancelled".
	ctx       context.Context
	d         *dataset.Dataset
	cfg       *Config
	prune     Pruning
	contAttrs []int
	alpha     float64 // Bonferroni-adjusted level α
	threshold float64 // current top-k minimum support (interest measure)
	memo      *supportMemo
	table     pruneTable // read-only during the run
	stats     Stats
	inserts   []string // lookup-table keys produced by this run
	alive     bool     // at least one space survived pruning
	sizes     []int
	totalRows int
	// rec is the optional instrumentation sink (nil = disabled); shared
	// across concurrent runs, so only atomic operations.
	rec *metrics.Recorder
	// tr is the optional decision-event sink (nil = disabled); worker is
	// the per-level goroutine index trace events are attributed to.
	tr     *trace.Tracer
	worker int
}

// run executes Algorithm 1 for the given categorical context and returns
// the contrast spaces found (after bottom-up merging).
func (r *sdadRun) run(catSet pattern.Itemset, cover dataset.View) []pattern.Contrast {
	r.stats.SDADCalls++
	r.rec.SDADCall()
	var startTS int64
	var start time.Time
	if r.tr.Enabled() {
		startTS = r.tr.Now()
		start = time.Now()
	}
	d := r.explore(cover, catSet, 1, 0)
	d = r.merge(d)
	if r.tr.Enabled() {
		r.tr.SDAD(startTS, r.worker, catSet.Key(), cover.Len(), time.Since(start))
	}
	return d
}

// explore is the recursive top-down part: partition every continuous
// attribute at its median within the current space, form all 2^|ca| boxes
// (find_combs), and for each box decide — via the optimistic estimate —
// whether to recurse, to record a contrast, or to stop.
func (r *sdadRun) explore(view dataset.View, box pattern.Itemset, level int, parentMeasure float64) []pattern.Contrast {
	if level > r.cfg.MaxRecursion || view.Len() < 2 || r.cancelled() {
		return nil
	}

	// partition(ca): split each attribute at the view's median, within the
	// box's current range.
	choices := make([][]pattern.Interval, 0, len(r.contAttrs))
	splits := 0
	for _, attr := range r.contAttrs {
		cur := currentRange(box, attr)
		med := view.Median(attr)
		_, hi := view.MinMax(attr)
		if med > cur.Lo && med < hi && med < cur.Hi {
			choices = append(choices, []pattern.Interval{
				{Lo: cur.Lo, Hi: med},
				{Lo: med, Hi: cur.Hi},
			})
			splits++
			if r.tr.Enabled() {
				r.tr.Split(level, r.worker, box.Key(), r.d.Attr(attr).Name,
					med, cur.Lo, cur.Hi)
			}
		} else {
			choices = append(choices, []pattern.Interval{cur})
		}
	}
	if splits == 0 {
		return nil
	}
	r.rec.Splits(splits)

	// Assign every view row to its space in a single pass: the interval
	// choices partition each attribute's current range, so each row lands
	// in exactly one space. This replaces 2^|ca| per-space scans.
	//
	// The assignment uses the same (Lo, Hi] half-open convention as the
	// recorded RangeItems, View.FilterRange and pattern.SupportsOf: a row
	// belongs to the low child of a split at m iff Lo < v <= m and to the
	// high child iff m < v <= Hi. Rows outside the box's current range on
	// any attribute — values tied exactly at the box's Lo, or beyond its
	// Hi, which a caller-supplied view may contain — belong to no space,
	// exactly as re-counting the recorded box would exclude them.
	totalSpaces := 1
	for _, ch := range choices {
		totalSpaces *= len(ch)
	}
	r.rec.BoxesExplored(totalSpaces)
	spaceRows := make([][]int, totalSpaces)
	n := view.Len()
	for i := 0; i < n; i++ {
		row := view.Row(i)
		linear := 0
		mult := 1
		skip := false
		for k, attr := range r.contAttrs {
			ch := choices[k]
			v := r.d.Cont(attr, row)
			if v != v { // NaN: a missing reading belongs to no bin
				skip = true
				break
			}
			if v <= ch[0].Lo || v > ch[len(ch)-1].Hi {
				skip = true // outside the box under (Lo, Hi] semantics
				break
			}
			choice := 0
			if len(ch) == 2 && v > ch[0].Hi {
				choice = 1
			}
			linear += choice * mult
			mult *= len(ch)
		}
		if skip {
			continue
		}
		spaceRows[linear] = append(spaceRows[linear], row)
	}

	var contrasts, tentative []pattern.Contrast // D and Dtemp
	// find_combs(p): iterate the cartesian product of interval choices.
	idx := make([]int, len(choices))
	for linear := 0; ; linear++ {
		r.exploreSpace(box, choices, idx, spaceRows[linear], level, parentMeasure, &contrasts, &tentative)
		// Advance the odometer (idx[0] fastest, matching the linear index).
		i := 0
		for ; i < len(idx); i++ {
			idx[i]++
			if idx[i] < len(choices[i]) {
				break
			}
			idx[i] = 0
		}
		if i == len(idx) {
			break
		}
	}

	// Lines 22–25: tentative contrasts (not better than their parent) are
	// kept only if some space of this call did improve.
	if len(contrasts) > 0 {
		return append(contrasts, tentative...)
	}
	return nil
}

// exploreSpace processes one box of the current partition; rows holds the
// dataset row indices pre-assigned to this space.
func (r *sdadRun) exploreSpace(box pattern.Itemset,
	choices [][]pattern.Interval, idx []int, rows []int, level int, parentMeasure float64,
	contrasts, tentative *[]pattern.Contrast) {

	childBox := box
	for i, attr := range r.contAttrs {
		iv := choices[i][idx[i]]
		childBox = childBox.With(pattern.RangeItem(attr, iv.Lo, iv.Hi))
	}
	if childBox.Equal(box) {
		return // no attribute refined: same space as the parent
	}

	// Lookup-table check (Line 7).
	if r.prune.LookupTable {
		if subKey, hit := r.table.prunedSubset(childBox); hit {
			r.rec.PruneHit(metrics.PruneLookupTable)
			if r.tr.Enabled() {
				r.tr.Prune(level, r.worker, childBox.Key(),
					metrics.PruneLookupTable.String()+":"+subKey, 0, 0)
			}
			r.stats.SpacesPruned++
			return
		}
	}

	// Count supports in the space (Line 10).
	sub := r.d.Restrict(rows)
	r.stats.PartitionsEvaluated++
	counts := sub.GroupCounts()
	sup := pattern.CountsToSupports(counts, r.sizes)
	score := r.cfg.Measure.Eval(sup)
	if r.tr.Enabled() {
		r.tr.Space(level, r.worker, childBox.Key(), sub.Len(), counts)
	}

	// Pruning rules (§4.3).
	dec := evaluatePruning(r.prune, childBox, sup, r.cfg.Delta, r.alpha,
		r.totalRows, r.memo.supports, r.rec, r.tr, level, r.worker)
	if dec.record && r.prune.LookupTable {
		r.inserts = append(r.inserts, childBox.Key())
	}
	if dec.skipContrast && dec.skipChildren {
		r.stats.SpacesPruned++
		return
	}
	r.alive = true

	// Decide whether to explore further (Lines 12–13): recurse while the
	// optimistic estimate exceeds the current minimum support.
	explored := false
	if !dec.skipChildren {
		oe := optimisticEstimate(sup, sub.Len(), len(r.contAttrs), r.cfg.OEMode, r.cfg.Measure)
		if oe > r.threshold {
			child := r.explore(sub, childBox, level+1, score)
			if len(child) > 0 {
				*contrasts = append(*contrasts, child...)
				explored = true
			}
		} else {
			r.rec.PruneHit(metrics.PruneOptimisticEstimate)
			if r.tr.Enabled() {
				r.tr.Prune(level, r.worker, childBox.Key(),
					metrics.PruneOptimisticEstimate.String(), oe, r.threshold)
			}
		}
	}
	if dec.skipContrast || (explored && !r.cfg.RecordExploredSpaces) {
		if explored && r.tr.Enabled() {
			// Algorithm 1 keeps the refined children, not the coarse parent.
			r.tr.Prune(level, r.worker, childBox.Key(), "superseded_by_children",
				score, parentMeasure)
		}
		return
	}

	// Lines 17–21: record the space when it is large and significant —
	// immediately if it improves on its parent, tentatively otherwise.
	if sup.MaxDiff() <= r.cfg.Delta {
		if r.tr.Enabled() {
			r.tr.Prune(level, r.worker, childBox.Key(), "not_large",
				sup.MaxDiff(), r.cfg.Delta)
		}
		return
	}
	test, err := stats.ChiSquare2xK(sup.Count, r.sizes)
	// NaN-safe gate: only a definite P < α admits; an error or a NaN
	// P-value (degenerate table, tiny sample) must read as "not
	// significant", never as pass.
	if err != nil || !(test.P < r.alpha) {
		if r.tr.Enabled() {
			r.tr.Prune(level, r.worker, childBox.Key(), "not_significant",
				test.P, r.alpha)
		}
		return
	}
	if r.tr.Enabled() {
		r.tr.Emit(level, r.worker, childBox.Key(), score, test.Statistic, test.P, counts)
	}
	c := pattern.Contrast{
		Set:      childBox,
		Supports: sup,
		Score:    score,
		ChiSq:    test.Statistic,
		P:        test.P,
	}
	if score > parentMeasure {
		*contrasts = append(*contrasts, c)
	} else {
		*tentative = append(*tentative, c)
	}
}

// cancelled reports whether the run's context has been cancelled; a nil
// context never is.
func (r *sdadRun) cancelled() bool {
	return r.ctx != nil && r.ctx.Err() != nil
}

// currentRange returns the box's interval on attr, or the full range.
func currentRange(box pattern.Itemset, attr int) pattern.Interval {
	if it, ok := box.ItemOn(attr); ok {
		return it.Range
	}
	return pattern.FullRange()
}

// merge is the bottom-up part (Lines 26–30): repeatedly combine contiguous
// spaces — smallest hyper-volume first — whose group distributions are
// statistically similar, as long as the merged contrast stays large and
// significant.
//
// The scan repeatedly takes the first mergeable pair in volume order.
// tryMerge is a pure function of the two contrasts, so a pair that failed
// once fails forever: failures are memoized and the rescan after a merge
// re-examines only pairs involving the new union (everything else is a map
// hit). The union is spliced into the volume order directly instead of
// re-sorting the whole list. This replaces the former
// re-sort-and-recompute-all-pairs restart, which made merge-heavy windows
// O(n³) chi-square evaluations; the visit order — and therefore the result
// — is unchanged.
func (r *sdadRun) merge(d []pattern.Contrast) []pattern.Contrast {
	if len(d) < 2 {
		return d
	}
	// Deduplicate by key (Dtemp flushing can duplicate across levels).
	seen := map[string]bool{}
	spaces := d[:0:0]
	for _, c := range d {
		if !seen[c.Set.Key()] {
			seen[c.Set.Key()] = true
			spaces = append(spaces, c)
		}
	}
	sortByVolume(spaces)

	type pairKey struct{ a, b string }
	failed := make(map[pairKey]struct{})
	for {
		if r.cancelled() {
			// A merge-heavy window can spend quadratic work per round; a
			// cancelled job returns the spaces merged so far instead of
			// finishing the rescan.
			return spaces
		}
		merged := false
	outer:
		for i := 0; i < len(spaces); i++ {
			for j := i + 1; j < len(spaces); j++ {
				key := pairKey{spaces[i].Set.Key(), spaces[j].Set.Key()}
				if _, done := failed[key]; done {
					continue
				}
				r.rec.MergeAttempt()
				u, ok := r.tryMerge(spaces[i], spaces[j])
				if !ok {
					failed[key] = struct{}{}
					continue
				}
				r.stats.MergeOps++
				r.rec.MergeOp()
				// Replace the pair with the union, splicing it into the
				// existing volume order (j > i, so remove j first).
				spaces = append(spaces[:j], spaces[j+1:]...)
				spaces = append(spaces[:i], spaces[i+1:]...)
				spaces = insertByVolume(spaces, u)
				merged = true
				break outer
			}
		}
		if !merged {
			return spaces
		}
	}
}

// insertByVolume inserts c into a volume-sorted slice at its ordered
// position (the same total order sortByVolume establishes).
func insertByVolume(cs []pattern.Contrast, c pattern.Contrast) []pattern.Contrast {
	pos := sort.Search(len(cs), func(i int) bool { return volumeLess(c, cs[i]) })
	cs = append(cs, pattern.Contrast{})
	copy(cs[pos+1:], cs[pos:])
	cs[pos] = c
	return cs
}

// tryMerge combines two contrast spaces when they are contiguous on
// exactly one continuous attribute (identical elsewhere), their group
// distributions pass the chi-square similarity test at α, and the union is
// still a large, significant contrast.
func (r *sdadRun) tryMerge(a, b pattern.Contrast) (pattern.Contrast, bool) {
	attr, union, ok := contiguousOn(a.Set, b.Set)
	if !ok {
		return pattern.Contrast{}, false
	}
	merged := a.Set.With(pattern.RangeItem(attr, union.Lo, union.Hi))
	// Similarity: the two spaces must not differ significantly in their
	// group composition.
	table := [][]float64{{}, {}}
	for g := range a.Supports.Count {
		table[0] = append(table[0], float64(a.Supports.Count[g]))
		table[1] = append(table[1], float64(b.Supports.Count[g]))
	}
	simP := 1.0
	if res, err := stats.ChiSquareTable(table); err == nil {
		simP = res.P
	}
	if simP < r.alpha {
		if r.tr.Enabled() {
			r.tr.Merge(r.worker, merged.Key(), "reject_similarity", simP, 0)
		}
		return pattern.Contrast{}, false // significantly different: keep split
	}

	counts := make([]int, len(a.Supports.Count))
	for g := range counts {
		counts[g] = a.Supports.Count[g] + b.Supports.Count[g]
	}
	sup := pattern.CountsToSupports(counts, r.sizes)
	if sup.MaxDiff() <= r.cfg.Delta {
		if r.tr.Enabled() {
			r.tr.Merge(r.worker, merged.Key(), "reject_largeness", simP, sup.MaxDiff())
		}
		return pattern.Contrast{}, false
	}
	test, err := stats.ChiSquare2xK(sup.Count, r.sizes)
	// NaN-safe: a NaN P-value must not let a merge through.
	if err != nil || !(test.P < r.alpha) {
		if r.tr.Enabled() {
			r.tr.Merge(r.worker, merged.Key(), "reject_significance", simP, sup.MaxDiff())
		}
		return pattern.Contrast{}, false
	}
	if r.tr.Enabled() {
		r.tr.Merge(r.worker, merged.Key(), "merged", simP, sup.MaxDiff())
	}
	return pattern.Contrast{
		Set:      merged,
		Supports: sup,
		Score:    r.cfg.Measure.Eval(sup),
		ChiSq:    test.Statistic,
		P:        test.P,
	}, true
}

// contiguousOn reports whether two boxes differ on exactly one continuous
// attribute with contiguous ranges (identical items elsewhere), returning
// that attribute and the union interval.
func contiguousOn(a, b pattern.Itemset) (attr int, union pattern.Interval, ok bool) {
	if a.Len() != b.Len() {
		return 0, pattern.Interval{}, false
	}
	attr = -1
	for i := 0; i < a.Len(); i++ {
		ia, ib := a.Item(i), b.Item(i)
		if ia.Equal(ib) {
			continue
		}
		if ia.Attr != ib.Attr || ia.Kind != dataset.Continuous || ib.Kind != dataset.Continuous {
			return 0, pattern.Interval{}, false
		}
		if attr != -1 {
			return 0, pattern.Interval{}, false // differ on two attributes
		}
		u, contiguous := ia.Range.Union(ib.Range)
		if !contiguous {
			return 0, pattern.Interval{}, false
		}
		attr, union = ia.Attr, u
	}
	if attr == -1 {
		return 0, pattern.Interval{}, false // identical boxes
	}
	return attr, union, true
}

// sortByVolume orders contrasts by ascending hyper-volume (unbounded
// ranges last), breaking ties by key for determinism.
func sortByVolume(cs []pattern.Contrast) {
	sort.Slice(cs, func(i, j int) bool { return volumeLess(cs[i], cs[j]) })
}

// volumeLess is the total order sortByVolume and insertByVolume share:
// ascending hyper-volume, unbounded ranges last, ties broken by key.
func volumeLess(a, b pattern.Contrast) bool {
	va, vb := a.Set.Volume(), b.Set.Volume()
	if va != vb {
		if math.IsInf(va, 1) {
			return false
		}
		if math.IsInf(vb, 1) {
			return true
		}
		return va < vb
	}
	return a.Set.Key() < b.Set.Key()
}
