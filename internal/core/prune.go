package core

import (
	"math"
	"sync"

	"sdadcs/internal/bitmap"
	"sdadcs/internal/dataset"
	"sdadcs/internal/metrics"
	"sdadcs/internal/pattern"
	"sdadcs/internal/stats"
	"sdadcs/internal/trace"
)

// pruneTable is the lookup table of §4.1: canonical keys of itemsets found
// prunable. A space is cut when any subset of its items is present.
type pruneTable map[string]struct{}

// prunedSubset returns the key of a recorded non-empty subset of the
// itemset's items (including the itemset itself), if any — the provenance
// answer to "which earlier prune killed this space". Itemsets are at most
// MaxDepth items, so the 2^n subset enumeration is tiny.
func (t pruneTable) prunedSubset(set pattern.Itemset) (string, bool) {
	if len(t) == 0 {
		return "", false
	}
	items := set.Items()
	n := len(items)
	if n == 0 {
		return "", false
	}
	for mask := 1; mask < 1<<uint(n); mask++ {
		var sub []pattern.Item
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				sub = append(sub, items[i])
			}
		}
		key := pattern.NewItemset(sub...).Key()
		if _, ok := t[key]; ok {
			return key, true
		}
	}
	return "", false
}

// hasPrunedSubset reports whether any recorded subset cuts the itemset.
func (t pruneTable) hasPrunedSubset(set pattern.Itemset) bool {
	_, ok := t.prunedSubset(set)
	return ok
}

// pruneDecision is the outcome of the §4.3 rules for one space.
type pruneDecision struct {
	// skipContrast: the space cannot be (or should not be reported as) a
	// contrast.
	skipContrast bool
	// skipChildren: do not explore specializations of the space.
	skipChildren bool
	// record: insert the space's key into the lookup table so later
	// combinations with this space as a subset are cut.
	record bool
}

// significance is the test level in force for one level of the search:
// the Bonferroni-adjusted α and the chi-square critical value at α that
// the optimistic-estimate rule compares against. The critical value is a
// bisection over the chi-square CDF, so it is computed once per level, not
// once per space.
type significance struct {
	alpha float64
	crit  float64 // χ²_{1−α} with groups−1 degrees of freedom
}

func newSignificance(alpha float64, groups int) significance {
	return significance{alpha: alpha, crit: stats.ChiSquareQuantile(1-alpha, groups-1)}
}

// evaluatePruning applies the pruning rules to a counted space.
//
// sup holds the space's per-group supports; set its itemset. The CLT
// redundancy rule compares the space's support difference against each
// subset obtained by dropping one item (Eq. 14–16); subset supports are
// provided by the memoizing suppOf callback. rec (nil = disabled) counts
// which rule fired; tr (nil = disabled) additionally records the decision
// itself — which rule, at what observed statistic, against which bound.
// Both sinks are safe for concurrent use, so this function stays callable
// from parallel per-level workers; level/worker only annotate trace
// events.
func evaluatePruning(p Pruning, set pattern.Itemset, sup pattern.Supports,
	delta float64, sig significance, totalRows int,
	suppOf func(pattern.Itemset) pattern.Supports,
	rec *metrics.Recorder, tr *trace.Tracer, level, worker int) pruneDecision {

	// Minimum deviation size: no group reaches δ, so neither this space
	// nor any specialization can be a large contrast.
	if p.MinDeviation && !sup.LargeIn(delta) {
		rec.PruneHit(metrics.PruneMinDeviation)
		if tr.Enabled() {
			tr.Prune(level, worker, set.Key(), metrics.PruneMinDeviation.String(),
				maxSupport(sup), delta)
		}
		return pruneDecision{skipContrast: true, skipChildren: true, record: true}
	}
	// Expected count: statistical tests are invalid below an expected
	// cell count of 5, and specializations only shrink counts.
	if p.ExpectedCount {
		if min := minExpected(sup, totalRows); min < 5 {
			rec.PruneHit(metrics.PruneExpectedCount)
			if tr.Enabled() {
				tr.Prune(level, worker, set.Key(), metrics.PruneExpectedCount.String(), min, 5)
			}
			return pruneDecision{skipContrast: true, skipChildren: true, record: true}
		}
	}
	// CLT redundancy: the support difference is statistically the same as
	// a subset's, so this space (and its supersets) add nothing.
	if p.RedundancyCLT && set.Len() >= 2 {
		if det, redundant := redundantByCLT(set, sup, sig.alpha, suppOf); redundant {
			rec.PruneHit(metrics.PruneRedundancyCLT)
			if tr.Enabled() {
				tr.Prune(level, worker, set.Key(),
					metrics.PruneRedundancyCLT.String()+":"+det.subsetKey,
					det.diff, det.half)
			}
			return pruneDecision{skipContrast: true, skipChildren: true, record: true}
		}
	}
	var d pruneDecision
	// Pure space: PR = 1 means one group is absent; the space itself is a
	// fine contrast but adding attributes only produces redundant ones.
	if p.PureSpace && sup.PR() >= 1 && sup.TotalCount() > 0 {
		rec.PruneHit(metrics.PrunePureSpace)
		if tr.Enabled() {
			tr.Prune(level, worker, set.Key(), metrics.PrunePureSpace.String(), sup.PR(), 1)
		}
		d.skipChildren = true
		d.record = true
	}
	// Chi-square optimistic estimate: if no specialization can reach the
	// critical value at the current α, children cannot be significant.
	if p.ChiSquareOE && !d.skipChildren {
		bound := stats.ChiSquareOptimistic(sup.Count, sup.Size)
		if bound < sig.crit {
			rec.PruneHit(metrics.PruneChiSquareOE)
			if tr.Enabled() {
				tr.Prune(level, worker, set.Key(), metrics.PruneChiSquareOE.String(), bound, sig.crit)
			}
			d.skipChildren = true
		}
	}
	return d
}

// maxSupport returns the largest per-group support — the statistic the
// minimum-deviation rule tests against δ.
func maxSupport(sup pattern.Supports) float64 {
	max := 0.0
	for g := 0; g < sup.Groups(); g++ {
		if s := sup.Supp(g); s > max {
			max = s
		}
	}
	return max
}

// minExpected returns the smallest expected cell count of the
// pattern × group contingency table (the expected-count rule prunes when
// it is below 5).
func minExpected(sup pattern.Supports, totalRows int) float64 {
	covered := sup.TotalCount()
	min := math.Inf(1)
	for _, gs := range sup.Size {
		if e := float64(covered) * float64(gs) / float64(totalRows); e < min {
			min = e
		}
	}
	return min
}

// cltDetail reports which subset triggered the CLT redundancy rule and
// at which statistics — the payload of the traced prune decision.
type cltDetail struct {
	subsetKey string
	diff      float64 // the current itemset's support difference
	half      float64 // the half-width α·sqrt(a+b) of the subset's bound
}

// redundantByCLT implements the Eq. 14–16 check: for each subset obtained
// by dropping one item, if the current support difference lies within the
// bound diff_subset ± α·sqrt(a+b) around the subset's difference, the
// current itemset is statistically the same contrast.
//
// The multiplier is the paper's literal α (not the z critical value): the
// resulting bound is deliberately razor-thin, so the rule fires only on
// (near-)functional dependence — the {female, pregnant} example, equipment
// attributes that mirror each other — and never on a space whose children
// might hide a local interaction. Using z_{1−α/2} here would prune the
// very quadrants whose refinement reveals multivariate structure (the
// age × hours interaction of Table 1 dilutes to statistical redundancy at
// the first split level).
func redundantByCLT(set pattern.Itemset, sup pattern.Supports, alpha float64,
	suppOf func(pattern.Itemset) pattern.Supports) (cltDetail, bool) {

	x, y := extremeGroups(sup)
	diffCurr := sup.Supp(x) - sup.Supp(y)
	for _, attr := range set.Attrs() {
		subset := set.Without(attr)
		if subset.Len() == 0 {
			continue
		}
		sub := suppOf(subset)
		diffSub := sub.Supp(x) - sub.Supp(y)
		a := sub.Supp(x) * (1 - sub.Supp(x)) / float64(sub.Size[x])
		b := sub.Supp(y) * (1 - sub.Supp(y)) / float64(sub.Size[y])
		half := alpha * math.Sqrt(a+b)
		if diffCurr >= diffSub-half && diffCurr <= diffSub+half {
			return cltDetail{subsetKey: subset.Key(), diff: diffCurr, half: half}, true
		}
	}
	return cltDetail{}, false
}

// extremeGroups returns the groups with the largest and smallest support.
func extremeGroups(sup pattern.Supports) (hi, lo int) {
	for g := 1; g < sup.Groups(); g++ {
		if sup.Supp(g) > sup.Supp(hi) {
			hi = g
		}
		if sup.Supp(g) < sup.Supp(lo) {
			lo = g
		}
	}
	return hi, lo
}

// supportMemo caches itemset supports over the full dataset, shared by the
// CLT redundancy rule and the meaningfulness filters. It is safe for
// concurrent use (parallel level mining recomputes at worst).
type supportMemo struct {
	d *dataset.Dataset
	// index is the dataset's shared bitmap index and sizes its group
	// sizes; both are immutable, so a miss counts without locking.
	index *bitmap.Index
	sizes []int
	mu    sync.Mutex
	// cache maps itemset keys to their supports; values are deterministic
	// functions of the key, so racing writers are harmless.
	cache map[string]pattern.Supports
}

// newSupportMemo returns an empty memo over d, counting on d's shared
// bitmap index (built here if no Mine has built it yet).
func newSupportMemo(d *dataset.Dataset) *supportMemo {
	ix, _ := bitmap.Shared(d)
	return &supportMemo{d: d, index: ix, sizes: d.GroupSizes(), cache: make(map[string]pattern.Supports)}
}

func (m *supportMemo) supports(set pattern.Itemset) pattern.Supports {
	key := set.Key()
	m.mu.Lock()
	s, ok := m.cache[key]
	m.mu.Unlock()
	if ok {
		return s
	}
	s = pattern.CountsToSupports(m.count(set), m.sizes)
	m.mu.Lock()
	m.cache[key] = s
	m.mu.Unlock()
	return s
}

// count returns the itemset's per-group row counts over the whole dataset
// — exactly pattern.SupportsOf(set, d.All()).Count, without the row scan
// where the index can answer. The categorical items' value bitmaps are
// ANDed; with no range items, the cover is popcounted against the group
// masks. Range items are then tested column by column, on the cover's
// rows only (or on every row when there is no categorical item), under
// Interval.Contains's (Lo, Hi] rule, which leaves NaN uncovered; the last
// one counts its matches per group instead of keeping them.
func (m *supportMemo) count(set pattern.Itemset) []int {
	counts := make([]int, len(m.sizes))
	var cover *bitmap.Set
	var ranges []pattern.Item
	for _, it := range set.Items() {
		switch {
		case it.Kind == dataset.Continuous:
			ranges = append(ranges, it)
		case cover == nil:
			cover = m.index.Value(it.Attr, it.Code)
		default:
			cover = cover.And(m.index.Value(it.Attr, it.Code))
		}
	}
	if len(ranges) == 0 {
		if cover == nil {
			copy(counts, m.sizes) // the empty itemset covers every row
		} else {
			m.index.GroupCountsInto(cover, counts)
		}
		return counts
	}
	groups := m.d.GroupCodes()
	var rows []int
	if cover != nil {
		rows = cover.Rows()
	}
	for i, it := range ranges {
		col := m.d.ContColumn(it.Attr)
		last := i == len(ranges)-1
		if i == 0 && cover == nil {
			for row, x := range col {
				switch {
				case !it.Range.Contains(x):
				case last:
					counts[groups[row]]++
				default:
					rows = append(rows, row)
				}
			}
			continue
		}
		kept := rows[:0]
		for _, row := range rows {
			switch {
			case !it.Range.Contains(col[row]):
			case last:
				counts[groups[row]]++
			default:
				kept = append(kept, row)
			}
		}
		rows = kept
	}
	return counts
}
